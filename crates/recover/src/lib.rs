//! # vpce-recover — in-run rollback recovery for the V-Bus cluster
//!
//! Today a `RankCrash` aborts the whole attempt and the scheduler
//! requeues the job from scratch, discarding every cycle of virtual
//! time already spent. This crate adds the classic cluster reliability
//! primitive instead: **diskless checkpointing with buddy replication
//! and spare-node failover**.
//!
//! * After every `interval`-th parallel region, each rank's
//!   fence-boundary state (the exact `spmd_rt::checkpoint::Snapshot`
//!   payload) is PUT to `buddies` buddy ranks on other nodes, costed
//!   through the same eager/rendezvous transport model as any other
//!   one-sided transfer.
//! * When a rank crashes, the survivors quiesce, every rank rolls back
//!   to the last globally-consistent snapshot, the crashed rank is
//!   respawned from a buddy's replica onto a healthy spare node
//!   (remapped in [`cluster_sim::FailoverMap`]), and the lost regions
//!   replay deterministically.
//!
//! ## Why the recovered run is byte-identical
//!
//! Every fault draw is a pure hash of `(seed, site, key, salt)` and
//! every checkpoint is fence-exact, so a rollback + replay reproduces
//! precisely the virtual-time history the crash interrupted — the same
//! draws fire at the same keys, except the crash draw that was already
//! absorbed, which recovery masks. The driver therefore *predicts* the
//! full crash schedule up front (ascending region serial), validates
//! each crash group against the rollback budget, the replica placement
//! and the spare pool, and then executes **once** with exactly those
//! crash keys suppressed. The resulting report and trace are
//! byte-identical to the crash-free run; all recovery work lands in a
//! side [`RecoveryLedger`] whose components tile the `Recovery`
//! critical-path contribution exactly.
//!
//! ## Stable codes (VPCE40x)
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | VPCE401 | warning | recovery absorbed one or more crashes |
//! | VPCE402 | error | the crash schedule exceeded the rollback budget |
//! | VPCE403 | error | the spare-node pool ran dry |
//! | VPCE404 | error | a rank and every buddy replica crashed together |

#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use cluster_sim::{ClusterConfig, FailoverMap};
use mpi2::{quiesce_cost, replica_put_cost, TransportPolicy, ELEM_BYTES};
use spmd_rt::protocol::crash_key;
use spmd_rt::{try_execute_suppressed, ExecMode, RunReport, SpmdProgram};
use vpce_diag::settings::{self, Row};
use vpce_diag::{DiagCode, Severity};
use vpce_faults::{FaultInjector, FaultSpec, VpceError};
use vpce_trace::{EventKind, Tracer};

/// Stable diagnostic codes of the recovery driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoverCode {
    /// In-run recovery absorbed one or more crashes; the run completed.
    Succeeded,
    /// More crash groups than the rollback budget allows.
    BudgetExhausted,
    /// A crash group larger than the remaining spare pool.
    NoSpare,
    /// A rank and all of its buddy replicas crashed in the same group.
    ReplicaLost,
}

impl DiagCode for RecoverCode {
    fn as_str(self) -> &'static str {
        match self {
            RecoverCode::Succeeded => "VPCE401",
            RecoverCode::BudgetExhausted => "VPCE402",
            RecoverCode::NoSpare => "VPCE403",
            RecoverCode::ReplicaLost => "VPCE404",
        }
    }
    fn severity(self) -> Severity {
        match self {
            RecoverCode::Succeeded => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// The `--recover` configuration: checkpoint cadence, replication
/// degree, and failure budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverSpec {
    /// Checkpoint after every `interval`-th parallel region (≥ 1).
    pub interval: usize,
    /// Standby nodes provisioned for failover.
    pub spares: usize,
    /// Buddy ranks holding a replica of each rank's snapshot (≥ 1).
    pub buddies: usize,
    /// Maximum rollbacks (crash groups) one run may absorb.
    pub rollbacks: usize,
}

impl Default for RecoverSpec {
    fn default() -> Self {
        RecoverSpec { interval: 1, spares: 4, buddies: 2, rollbacks: 16 }
    }
}

impl RecoverSpec {
    /// Parse `--recover` / `recover=` syntax: `on` (all defaults) or
    /// comma-separated `key=value` overrides ([`RECOVER_KEYS`]),
    /// optionally led by `on`. A repeated key is refused, as in the
    /// `--faults` grammar.
    pub fn parse(s: &str) -> Result<RecoverSpec, String> {
        let mut items = settings::list(s).peekable();
        items.next_if_eq(&"on");
        let mut spec = RecoverSpec::default();
        settings::apply(RECOVER_KEYS, &mut spec, items).map_err(|e| e.detail)?;
        Ok(spec)
    }

    /// The canonical `recover=` string: `on` for the defaults,
    /// otherwise the overridden fields in [`RECOVER_KEYS`] order.
    /// Parsing the result reproduces the spec exactly (jobfile/journal
    /// round-trip).
    pub fn to_record(&self) -> String {
        if *self == RecoverSpec::default() {
            return "on".to_string();
        }
        settings::record(RECOVER_KEYS, self, &RecoverSpec::default()).join(",")
    }
}

/// Every `--recover` key, once; the order is the canonical record's.
#[rustfmt::skip]
pub const RECOVER_KEYS: &[Row<RecoverSpec>] = &[
    Row { key: "interval", help: "checkpoint after every interval-th parallel region (>= 1)",
          set: |s, v| settings::count(v).map(|x| s.interval = x), get: |s| s.interval.to_string() },
    Row { key: "spares", help: "standby nodes provisioned for failover",
          set: |s, v| settings::number(v).map(|x| s.spares = x), get: |s| s.spares.to_string() },
    Row { key: "buddies", help: "buddy ranks holding each rank's snapshot (>= 1)",
          set: |s, v| settings::count(v).map(|x| s.buddies = x), get: |s| s.buddies.to_string() },
    Row { key: "rollbacks", help: "rollbacks (crash groups) one run may absorb",
          set: |s, v| settings::number(v).map(|x| s.rollbacks = x), get: |s| s.rollbacks.to_string() },
];

/// Everything recovery did during one run, kept **out of band**: the
/// run's own report and trace stay byte-identical to the crash-free
/// execution, and this ledger carries the recovery work next to them.
/// The four time components sum to [`RecoveryLedger::recovery_total`]
/// exactly (bit-for-bit — each is a plain sum of f64 products), which
/// is the amount charged to the `Recovery` critical-path class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLedger {
    /// Fence-boundary checkpoints taken (= ⌊regions / interval⌋).
    pub checkpoints: usize,
    /// Bytes of one rank-0-visible snapshot payload (all arrays).
    pub payload_bytes: usize,
    /// Total bytes shipped to buddy replicas.
    pub replicated_bytes: usize,
    /// Crash groups absorbed (each = one quiesce + rollback).
    pub rollbacks: usize,
    /// Ranks respawned from a buddy replica onto a spare node.
    pub respawned: usize,
    /// Parallel regions re-executed during replays.
    pub replay_regions: usize,
    /// Virtual seconds spent replicating checkpoints to buddies.
    pub ckpt_time: f64,
    /// Virtual seconds spent quiescing survivors at rollbacks.
    pub quiesce_time: f64,
    /// Virtual seconds spent restoring replicas onto spare nodes.
    pub respawn_time: f64,
    /// Virtual seconds of deterministic re-execution after rollbacks.
    pub replay_time: f64,
    /// Every rank→node failover performed: `(rank, from, to)`.
    pub failovers: Vec<(usize, usize, usize)>,
    /// The recovery event stream (category `recovery`), in virtual-time
    /// order. Never emitted into the run's tracer — that is what keeps
    /// recovered traces byte-identical to crash-free ones.
    pub events: Vec<EventKind>,
}

impl RecoveryLedger {
    /// Total virtual time attributed to the `Recovery` critical-path
    /// class: the exact sum of the four components.
    pub fn recovery_total(&self) -> f64 {
        self.ckpt_time + self.quiesce_time + self.respawn_time + self.replay_time
    }

    /// True when recovery actually absorbed at least one crash.
    pub fn absorbed(&self) -> bool {
        self.rollbacks > 0
    }
}

/// One predicted crash group: every rank whose `RANK_CRASH` draw fires
/// at parallel-region serial `serial`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashGroup {
    pub serial: usize,
    pub ranks: Vec<usize>,
}

/// Predict the full crash schedule of a run: for each parallel-region
/// serial, the set of ranks whose crash draw fires. Pure — draws are
/// stateless hashes, so this is exactly what the run itself would see.
pub fn predict_crash_groups(
    faults: &FaultSpec,
    nprocs: usize,
    regions: usize,
) -> Vec<CrashGroup> {
    let inj = FaultInjector::new(faults.clone());
    let mut groups = Vec::new();
    for s in 0..regions {
        let ranks: Vec<usize> = (0..nprocs)
            .filter(|&r| inj.crash_hits(crash_key(r, s as u64)))
            .collect();
        if !ranks.is_empty() {
            groups.push(CrashGroup { serial: s, ranks });
        }
    }
    groups
}

/// Execute `prog` under `faults` with in-run rollback recovery armed.
///
/// The driver predicts every crash group, validates each in virtual-
/// time order — rollback budget, then replica survival, then spare
/// placement — and fails fast with a typed [`VpceError::RecoveryFailed`]
/// (VPCE402/404/403) if any group is unabsorbable. Otherwise it runs
/// the program **once** with exactly the absorbed crash draws masked:
/// the returned [`RunReport`] (report, arrays, boundaries, trace) is
/// byte-identical to the crash-free run, and the [`RecoveryLedger`]
/// carries the checkpoints, rollbacks, respawns and replay accounting
/// next to it.
pub fn run_recovering(
    prog: &SpmdProgram,
    cluster: &ClusterConfig,
    mode: ExecMode,
    tracer: Tracer,
    faults: FaultSpec,
    spec: &RecoverSpec,
) -> Result<(RunReport, RecoveryLedger), VpceError> {
    let n = prog.nprocs;
    // Block indices of the parallel regions, in program order; region
    // serial s executes at block pblocks[s].
    let pblocks: Vec<usize> = prog.numbered_regions().map(|(_, block, _)| block).collect();
    let regions = pblocks.len();

    let groups = predict_crash_groups(&faults, n, regions);
    let mut fm = FailoverMap::new(n, spec.spares);
    let mut ledger = RecoveryLedger::default();
    let mut suppressed: BTreeSet<u64> = BTreeSet::new();
    // Per absorbed group: (crash serial, checkpointed-region count
    // rolled back to, the failovers performed).
    let mut absorbed: Vec<(usize, usize, Vec<(usize, usize, usize)>)> = Vec::new();

    for g in &groups {
        let s = g.serial;
        if ledger.rollbacks + 1 > spec.rollbacks {
            return Err(VpceError::RecoveryFailed {
                code: RecoverCode::BudgetExhausted.as_str(),
                rank: g.ranks[0],
                detail: format!(
                    "crash at parallel region {s} needs rollback {} but the budget is {}",
                    ledger.rollbacks + 1,
                    spec.rollbacks
                ),
            });
        }
        // A rank is recoverable iff at least one buddy replica
        // survives the group. Buddy i of rank r lives on rank
        // (r + i) % n; a single-rank machine has no buddy at all.
        for &r in &g.ranks {
            let survivor =
                n > 1 && (1..=spec.buddies).any(|i| !g.ranks.contains(&((r + i) % n)));
            if !survivor {
                return Err(VpceError::RecoveryFailed {
                    code: RecoverCode::ReplicaLost.as_str(),
                    rank: r,
                    detail: format!(
                        "rank {r} and all {} buddy replicas crashed together at parallel region {s}",
                        spec.buddies
                    ),
                });
            }
        }
        if g.ranks.len() > fm.spares_left() {
            return Err(VpceError::RecoveryFailed {
                code: RecoverCode::NoSpare.as_str(),
                rank: g.ranks[fm.spares_left()],
                detail: format!(
                    "crash group of {} at parallel region {s} exceeds the {} spare node(s) left",
                    g.ranks.len(),
                    fm.spares_left()
                ),
            });
        }
        // The group is absorbable: consume budget and spares.
        ledger.rollbacks += 1;
        let ckpt = (s / spec.interval) * spec.interval;
        ledger.replay_regions += s - ckpt;
        let mut moves = Vec::with_capacity(g.ranks.len());
        for &r in &g.ranks {
            let (from, to) = fm.remap(r).expect("spares checked above");
            moves.push((r, from, to));
            ledger.respawned += 1;
            suppressed.insert(crash_key(r, s as u64));
        }
        absorbed.push((s, ckpt, moves));
    }

    // One real execution with exactly the absorbed crashes masked.
    // Every other draw — transport faults, slow ranks, unmasked
    // crashes — fires exactly as scheduled.
    let rep = try_execute_suppressed(prog, cluster, mode, tracer, faults, None, &suppressed)?;

    // Cost accounting from the final (crash-free-identical) timeline.
    let payload: usize = rep.arrays.iter().map(|a| a.len() * ELEM_BYTES).sum();
    let policy = TransportPolicy::from_config(cluster);
    let put = replica_put_cost(cluster, &policy, payload);
    ledger.checkpoints = regions / spec.interval;
    ledger.payload_bytes = payload;
    ledger.replicated_bytes = ledger.checkpoints * spec.buddies * payload;
    ledger.ckpt_time = ledger.checkpoints as f64 * spec.buddies as f64 * put;
    ledger.quiesce_time = ledger.rollbacks as f64 * quiesce_cost(cluster);
    ledger.respawn_time = ledger.respawned as f64 * put;
    // Replay time: from the rolled-back checkpoint's fence to the
    // crashed region's entry, read off the run's block boundaries.
    let entry_of = |region: usize| -> f64 {
        let blk = pblocks[region];
        if blk == 0 {
            0.0
        } else {
            rep.boundaries[blk - 1]
        }
    };
    let fence_of = |count: usize| -> f64 {
        if count == 0 {
            0.0
        } else {
            rep.boundaries[pblocks[count - 1]]
        }
    };
    for &(s, ckpt, _) in &absorbed {
        ledger.replay_time += entry_of(s) - fence_of(ckpt);
    }
    ledger.failovers = fm.history.clone();

    // The out-of-band event stream, in virtual-time order per region:
    // a crash (rollback/respawn/replay) strikes at region entry, a
    // checkpoint completes at region exit.
    let mut next = absorbed.iter().peekable();
    for j in 0..regions {
        if let Some((s, ckpt, moves)) = next.peek() {
            if *s == j {
                ledger.events.push(EventKind::Rollback { region: *ckpt, ranks: moves.len() });
                for &(rank, from, to) in moves {
                    ledger.events.push(EventKind::Respawn { rank, from, to });
                }
                ledger.events.push(EventKind::Replay { regions: s - ckpt });
                next.next();
            }
        }
        if (j + 1) % spec.interval == 0 {
            ledger.events.push(EventKind::RecoveryCheckpoint {
                region: j,
                bytes: payload,
                buddies: spec.buddies,
            });
        }
    }

    Ok((rep, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmad::RegionTransfer;
    use spmd_rt::ir::BinOp;
    use spmd_rt::{
        execute, try_execute, Block, CommOp, CommPlan, Expr, Instr, IntrinsicOp, ParRegion,
        Schedule,
    };

    /// Hand-built program with `regions` identical parallel regions:
    /// each computes C[i] = A[i] * 2 over 16 iterations, block-
    /// scheduled. One crash site per (rank, region) pair.
    fn multi_region_prog(nprocs: usize, regions: usize) -> SpmdProgram {
        let n = 16usize;
        let chunk = n / nprocs;
        let per_rank = |array: usize| -> Vec<Vec<CommOp>> {
            (0..nprocs)
                .map(|r| {
                    if r == 0 {
                        vec![]
                    } else {
                        vec![CommOp {
                            array,
                            descriptor: RegionTransfer {
                                offset: (r * chunk) as i64,
                                stride: 1,
                                count: chunk as u64,
                            }
                            .into(),
                        }]
                    }
                })
                .collect()
        };
        let i_var = 0usize;
        let idx = || {
            Expr::Bin(
                BinOp::Sub,
                Box::new(Expr::Scalar(i_var)),
                Box::new(Expr::IConst(1)),
            )
        };
        let body = vec![Instr::StoreArray {
            array: 1,
            index: idx(),
            value: Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Load { array: 0, index: Box::new(idx()) }),
                Box::new(Expr::RConst(2.0)),
            ),
        }];
        let init = vec![Instr::Loop {
            var: i_var,
            lo: Expr::IConst(1),
            hi: Expr::IConst(n as i64),
            step: 1,
            body: vec![Instr::StoreArray {
                array: 0,
                index: idx(),
                value: Expr::Intr(IntrinsicOp::ToReal, vec![Expr::Scalar(i_var)]),
            }],
        }];
        let region = |line: usize| ParRegion {
            var: i_var,
            lo: 1,
            step: 1,
            trips: n as u64,
            sched: Schedule::Block,
            body: body.clone().into(),
            scatter: CommPlan { per_rank: per_rank(0) },
            collect: CommPlan { per_rank: per_rank(1) },
            pull_scatter: false,
            lock_reductions: false,
            scalars_in: vec![],
            private_scalars: vec![],
            reductions: vec![],
            line,
        };
        let mut blocks = vec![Block::MasterSeq(init.clone().into())];
        for k in 0..regions {
            blocks.push(Block::Parallel(region(10 + k)));
        }
        let sequential = {
            let mut s = init;
            for _ in 0..regions {
                s.push(Instr::Loop {
                    var: i_var,
                    lo: Expr::IConst(1),
                    hi: Expr::IConst(n as i64),
                    step: 1,
                    body: body.clone(),
                });
            }
            s
        };
        SpmdProgram {
            name: "MULTI".into(),
            nprocs,
            arrays: vec![("A".into(), n), ("C".into(), n)],
            scalars: vec![("I".into(), true)],
            blocks,
            sequential: sequential.into(),
        }
    }

    fn crash_only(seed: u64, rate: f64) -> FaultSpec {
        FaultSpec { seed, rank_crash: rate, ..FaultSpec::off() }
    }

    fn generous() -> RecoverSpec {
        RecoverSpec { interval: 1, spares: 64, buddies: 3, rollbacks: 64 }
    }

    #[test]
    fn spec_parse_and_record_round_trip() {
        assert_eq!(RecoverSpec::parse("on").unwrap(), RecoverSpec::default());
        assert_eq!(RecoverSpec::parse("").unwrap(), RecoverSpec::default());
        let s = RecoverSpec::parse("interval=2,spares=3,buddies=1,rollbacks=5").unwrap();
        assert_eq!(
            s,
            RecoverSpec { interval: 2, spares: 3, buddies: 1, rollbacks: 5 }
        );
        assert_eq!(RecoverSpec::parse("on,spares=9").unwrap().spares, 9);
        for spec in [
            RecoverSpec::default(),
            s,
            RecoverSpec { interval: 4, ..RecoverSpec::default() },
            RecoverSpec { spares: 0, rollbacks: 0, ..RecoverSpec::default() },
        ] {
            let rec = spec.to_record();
            assert_eq!(RecoverSpec::parse(&rec).unwrap(), spec, "{rec}");
            assert!(!rec.contains(' '), "record must be one token: {rec}");
        }
        assert_eq!(RecoverSpec::default().to_record(), "on");
    }

    #[test]
    fn spec_parse_rejects_garbage_and_duplicates() {
        assert!(RecoverSpec::parse("interval=0").is_err());
        assert!(RecoverSpec::parse("buddies=0").is_err());
        assert!(RecoverSpec::parse("nope=1").is_err());
        assert!(RecoverSpec::parse("interval").is_err());
        assert!(RecoverSpec::parse("spares=1,on").is_err());
        let e = RecoverSpec::parse("spares=1,spares=2").unwrap_err();
        assert!(e.contains("duplicate"), "{e}");
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(RecoverCode::Succeeded.as_str(), "VPCE401");
        assert_eq!(RecoverCode::BudgetExhausted.as_str(), "VPCE402");
        assert_eq!(RecoverCode::NoSpare.as_str(), "VPCE403");
        assert_eq!(RecoverCode::ReplicaLost.as_str(), "VPCE404");
        assert_eq!(RecoverCode::Succeeded.severity(), Severity::Warning);
        assert_eq!(RecoverCode::NoSpare.severity(), Severity::Error);
    }

    #[test]
    fn prediction_matches_the_run() {
        let prog = multi_region_prog(4, 3);
        let cluster = ClusterConfig::paper_4node();
        for seed in 0..24 {
            let faults = crash_only(seed, 0.4);
            let groups = predict_crash_groups(&faults, 4, 3);
            let run = try_execute(&prog, &cluster, ExecMode::Full, faults);
            assert_eq!(
                run.is_err(),
                !groups.is_empty(),
                "seed {seed}: prediction and run disagree"
            );
        }
    }

    #[test]
    fn recovered_run_is_bit_identical_to_fault_free() {
        let prog = multi_region_prog(4, 3);
        let cluster = ClusterConfig::paper_4node();
        let clean = execute(&prog, &cluster, ExecMode::Full);
        let mut absorbed_any = false;
        for seed in 0..24 {
            let faults = crash_only(seed, 0.4);
            if try_execute(&prog, &cluster, ExecMode::Full, faults.clone()).is_ok() {
                continue;
            }
            let (rep, ledger) = run_recovering(
                &prog,
                &cluster,
                ExecMode::Full,
                Tracer::disabled(),
                faults,
                &generous(),
            )
            .unwrap_or_else(|e| panic!("seed {seed} not absorbed: {e}"));
            absorbed_any = true;
            assert!(ledger.absorbed());
            // Full canonical identity: timing bits, arrays, scalars,
            // fence boundaries.
            assert_eq!(rep.elapsed.to_bits(), clean.elapsed.to_bits(), "seed {seed}");
            assert_eq!(rep.arrays, clean.arrays, "seed {seed}");
            assert_eq!(rep.scalars, clean.scalars, "seed {seed}");
            assert_eq!(rep.boundaries, clean.boundaries, "seed {seed}");
        }
        assert!(absorbed_any, "no crashing seed in the scan — test is vacuous");
    }

    #[test]
    fn ledger_counters_and_times_tile_exactly() {
        let prog = multi_region_prog(4, 4);
        let cluster = ClusterConfig::paper_4node();
        // Find a seed with at least one crash.
        let seed = (0..64)
            .find(|&s| !predict_crash_groups(&crash_only(s, 0.4), 4, 4).is_empty())
            .expect("no crashing seed");
        let spec = RecoverSpec { interval: 2, ..generous() };
        let (rep, ledger) = run_recovering(
            &prog,
            &cluster,
            ExecMode::Full,
            Tracer::disabled(),
            crash_only(seed, 0.4),
            &spec,
        )
        .unwrap();
        // Checkpoint cadence: ⌊4 regions / interval 2⌋ = 2 snapshots.
        assert_eq!(ledger.checkpoints, 2);
        let payload: usize = rep.arrays.iter().map(|a| a.len() * ELEM_BYTES).sum();
        assert_eq!(ledger.payload_bytes, payload);
        assert_eq!(ledger.replicated_bytes, 2 * spec.buddies * payload);
        assert_eq!(ledger.respawned, ledger.failovers.len());
        // The four components tile the total bit-exactly.
        let total =
            ledger.ckpt_time + ledger.quiesce_time + ledger.respawn_time + ledger.replay_time;
        assert_eq!(total.to_bits(), ledger.recovery_total().to_bits());
        assert!(ledger.ckpt_time > 0.0);
        assert!(ledger.quiesce_time > 0.0);
        assert!(ledger.respawn_time > 0.0);
        assert!(ledger.replay_time >= 0.0);
        // Determinism: the same inputs reproduce the same ledger.
        let (_, again) = run_recovering(
            &prog,
            &cluster,
            ExecMode::Full,
            Tracer::disabled(),
            crash_only(seed, 0.4),
            &spec,
        )
        .unwrap();
        assert_eq!(ledger, again);
    }

    #[test]
    fn budget_exhaustion_is_vpce402() {
        let prog = multi_region_prog(4, 3);
        let cluster = ClusterConfig::paper_4node();
        let seed = (0..64)
            .find(|&s| !predict_crash_groups(&crash_only(s, 0.4), 4, 3).is_empty())
            .unwrap();
        let err = run_recovering(
            &prog,
            &cluster,
            ExecMode::Full,
            Tracer::disabled(),
            crash_only(seed, 0.4),
            &RecoverSpec { rollbacks: 0, ..generous() },
        )
        .unwrap_err();
        match err {
            VpceError::RecoveryFailed { code, .. } => assert_eq!(code, "VPCE402"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn spare_exhaustion_is_vpce403() {
        let prog = multi_region_prog(4, 3);
        let cluster = ClusterConfig::paper_4node();
        // A group smaller than the machine (so replicas survive) but
        // larger than an empty spare pool.
        let seed = (0..256)
            .find(|&s| {
                let gs = predict_crash_groups(&crash_only(s, 0.4), 4, 3);
                !gs.is_empty() && gs.iter().all(|g| g.ranks.len() < 4)
            })
            .unwrap();
        let err = run_recovering(
            &prog,
            &cluster,
            ExecMode::Full,
            Tracer::disabled(),
            crash_only(seed, 0.4),
            &RecoverSpec { spares: 0, ..generous() },
        )
        .unwrap_err();
        match err {
            VpceError::RecoveryFailed { code, .. } => assert_eq!(code, "VPCE403"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn replica_loss_is_vpce404() {
        // rate 1.0: every rank crashes at region 0, so every buddy
        // replica dies with its owner no matter the replication degree.
        let prog = multi_region_prog(4, 3);
        let cluster = ClusterConfig::paper_4node();
        let err = run_recovering(
            &prog,
            &cluster,
            ExecMode::Full,
            Tracer::disabled(),
            crash_only(1, 1.0),
            &generous(),
        )
        .unwrap_err();
        match err {
            VpceError::RecoveryFailed { code, .. } => assert_eq!(code, "VPCE404"),
            other => panic!("wrong error: {other}"),
        }
        // A single-node machine has no buddy to replicate to at all.
        let p1 = multi_region_prog(1, 2);
        let c1 = ClusterConfig::paper_n(1);
        let err = run_recovering(
            &p1,
            &c1,
            ExecMode::Full,
            Tracer::disabled(),
            crash_only(0, 1.0),
            &generous(),
        )
        .unwrap_err();
        match err {
            VpceError::RecoveryFailed { code, .. } => assert_eq!(code, "VPCE404"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn crash_free_schedule_yields_checkpoints_but_no_rollbacks() {
        let prog = multi_region_prog(4, 3);
        let cluster = ClusterConfig::paper_4node();
        let clean = execute(&prog, &cluster, ExecMode::Full);
        let (rep, ledger) = run_recovering(
            &prog,
            &cluster,
            ExecMode::Full,
            Tracer::disabled(),
            FaultSpec::off(),
            &RecoverSpec::default(),
        )
        .unwrap();
        assert_eq!(rep.elapsed.to_bits(), clean.elapsed.to_bits());
        assert_eq!(rep.arrays, clean.arrays);
        assert!(!ledger.absorbed());
        assert_eq!(ledger.rollbacks, 0);
        assert_eq!(ledger.respawned, 0);
        assert_eq!(ledger.checkpoints, 3);
        assert_eq!(ledger.quiesce_time, 0.0);
        assert_eq!(ledger.replay_time, 0.0);
        assert!(ledger.ckpt_time > 0.0);
        // Events: exactly one checkpoint per region at interval=1.
        assert_eq!(ledger.events.len(), 3);
        assert!(ledger
            .events
            .iter()
            .all(|e| matches!(e, EventKind::RecoveryCheckpoint { .. })));
    }

    #[test]
    fn event_stream_orders_rollbacks_before_checkpoints() {
        let prog = multi_region_prog(4, 3);
        let cluster = ClusterConfig::paper_4node();
        let seed = (0..64)
            .find(|&s| !predict_crash_groups(&crash_only(s, 0.4), 4, 3).is_empty())
            .unwrap();
        let (_, ledger) = run_recovering(
            &prog,
            &cluster,
            ExecMode::Full,
            Tracer::disabled(),
            crash_only(seed, 0.4),
            &generous(),
        )
        .unwrap();
        let rollbacks = ledger
            .events
            .iter()
            .filter(|e| matches!(e, EventKind::Rollback { .. }))
            .count();
        let respawns = ledger
            .events
            .iter()
            .filter(|e| matches!(e, EventKind::Respawn { .. }))
            .count();
        assert_eq!(rollbacks, ledger.rollbacks);
        assert_eq!(respawns, ledger.respawned);
        assert!(ledger.events.iter().all(|e| e.category() == "recovery"));
    }
}
