//! Per-job compilation and execution.
//!
//! Admission compiles the job once ([`analyze`], the front end, shared
//! with its translation by every job of one program text and
//! parameters; [`compile`], the backend at the chosen granularity) and
//! dry-runs it fault-free on its private partition. The dry run is not a second way to execute a program: it
//! is [`run_attempt`], attempt 0, of the job's fault- and recover-free
//! copy ([`crate::Runner::prepare`] composes the two), and its one
//! shared outcome ([`Prepared::clean`]) serves three masters. It
//! validates the program (a job that cannot finish cleanly is rejected
//! up front, not discovered mid-batch), its makespan is the *baseline*
//! the backfill reservation arithmetic and the failure heartbeat both
//! need, and its arrays are the reference each faulty attempt must
//! reproduce byte-identically. For a job that arms no faults it also
//! *is* attempt 0.
//!
//! Every attempt runs in its own [`cluster_sim::ClusterConfig`] /
//! `mpi2::Universe`: windows, `NetStats`, `RankStats` and trace
//! buffers are private to the attempt by construction. Requeued
//! attempts re-seed the job's fault schedule deterministically
//! (`seed + k·GOLDEN` for attempt `k`), so a crash is not replayed
//! verbatim yet the whole batch stays a pure function of the jobfile
//! and batch seed.

use std::rc::Rc;

use cluster_sim::ClusterConfig;
use lmad::Granularity;
use polaris_be::{BackendOptions, Translated};
use polaris_fe::AnalyzedProgram;
use spmd_rt::{ExecMode, RunReport, SpmdProgram, VpceError};
use vbus_sim::Mesh;
use vpce_faults::FaultSpec;
use vpce_machine::MachineSpec;
use vpce_recover::RecoveryLedger;
use vpce_trace::Tracer;

use crate::job::{JobSource, JobSpec};

/// Odd golden-ratio increment used to derive per-attempt fault seeds.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Resolves a `src=` jobfile path to program text. The CLI resolves
/// relative to the jobfile's directory; tests inject closures.
pub type SourceLoader<'a> = dyn Fn(&str) -> Result<String, String> + 'a;

/// A compiled job: the program and the partition every attempt of it
/// executes on.
#[derive(Debug, Clone)]
pub struct Plan {
    pub program: SpmdProgram,
    /// Partition rectangle the job's ranks occupy (on switch-based
    /// fabrics: the accounting footprint the node map charges).
    pub shape: Mesh,
    /// The job's machine lowered onto `shape` at admission — the
    /// configuration of the fresh private cluster each attempt runs on.
    pub cluster: ClusterConfig,
    pub granularity: Granularity,
}

/// A job that passed admission: its plan and its fault-free baseline.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub plan: Plan,
    /// The fault-free run. Its `report.elapsed` is the scheduling-time
    /// estimate, the backfill bound and the failure heartbeat; its
    /// `report.arrays` are the byte-identity reference.
    pub clean: Rc<AttemptOutcome>,
}

pub(crate) fn reject(job: &JobSpec, reason: String) -> VpceError {
    VpceError::AdmissionRejected { job: job.name.clone(), reason }
}

pub(crate) fn resolve_source(job: &JobSpec, loader: &SourceLoader) -> Result<String, VpceError> {
    match &job.source {
        JobSource::Inline(text) => Ok(text.clone()),
        JobSource::Path(path) => {
            loader(path).map_err(|e| reject(job, format!("source `{path}`: {e}")))
        }
        JobSource::Workload(name) => {
            let w = match name.as_str() {
                "mm" => vpce_workloads::mm::WORKLOAD,
                "swim" => vpce_workloads::swim::WORKLOAD,
                "swim-full" => vpce_workloads::swim_full::WORKLOAD,
                "cfft" => vpce_workloads::cfft::WORKLOAD,
                "irregular" => vpce_workloads::irregular::WORKLOAD,
                other => {
                    return Err(reject(
                        job,
                        format!("unknown workload `{other}` (mm|swim|swim-full|cfft|irregular)"),
                    ))
                }
            };
            Ok(w.source.to_string())
        }
    }
}

/// Resolve a job's effective machine description: its own `machine=`
/// field (a built-in name), else the batch-level `default`, else the
/// paper machine ([`MachineSpec::default`]). An unknown name is a typed
/// admission rejection — jobfile parsing already screens it, but specs
/// built through the API arrive unchecked.
pub fn resolve_machine(
    job: &JobSpec,
    default: Option<&MachineSpec>,
) -> Result<MachineSpec, VpceError> {
    match &job.machine {
        None => Ok(default.cloned().unwrap_or_default()),
        Some(name) => MachineSpec::builtin(name).ok_or_else(|| {
            reject(
                job,
                format!(
                    "unknown machine `{name}` (built-in descriptions: {})",
                    MachineSpec::BUILTINS.join(", ")
                ),
            )
        }),
    }
}

/// The partition rectangle the node map charges a `ranks`-wide job
/// for. On rectangular fabrics this is the carved sub-mesh; on
/// switch-based fabrics (crossbar, fat-tree, shared) there is no
/// rectangular sub-shape, so a near-square accounting footprint stands
/// in — the attempt's network is a private fabric instance either way.
pub fn job_footprint(machine: &MachineSpec, ranks: usize) -> Mesh {
    machine
        .partition_footprint(ranks.max(1))
        .expect("positive ranks always have a footprint")
}

/// The front end on the job's program text `source` under its
/// `PARAMETER` overrides. A failure is a typed
/// [`VpceError::AdmissionRejected`] naming `job`.
pub fn analyze(job: &JobSpec, source: &str) -> Result<AnalyzedProgram, VpceError> {
    let params: Vec<(&str, i64)> = job.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    polaris_fe::compile(source, &params).map_err(|e| reject(job, format!("front-end: {e}")))
}

/// Admission-time compile of the job's translated program onto its
/// resolved machine ([`resolve_machine`]). A job without `grain=` gets
/// the grain [`polaris_be::advise`] picks by simulating every grain on
/// the job's own partition. Any failure here — the machine cannot host
/// the partition, or a pricing run fails — is a typed
/// [`VpceError::AdmissionRejected`]: the job never enters the queue.
pub fn compile(
    job: &JobSpec,
    translated: &Translated<'_>,
    machine: &MachineSpec,
) -> Result<Plan, VpceError> {
    let shape = job_footprint(machine, job.ranks);
    // The private cluster every attempt executes on: the machine's
    // fabric lowered onto the job's partition (a `VPCE505`-class
    // failure — e.g. a non-power-of-two hypercube partition — rejects).
    let cluster = machine
        .lower_partition(shape, job.ranks)
        .map_err(|e| reject(job, format!("machine `{}`: {e}", machine.name)))?;
    let base = BackendOptions::new(job.ranks);
    // The advisor prices the grains on that cluster and hands back the
    // winner's plan.
    let (granularity, program) = match job.granularity {
        Some(g) => (g, translated.lower(&base.granularity(g)).0),
        None => {
            let advice = polaris_be::advise(translated, &cluster, &base)
                .map_err(|e| reject(job, format!("advisor pricing run: {e}")))?;
            (advice.winner, advice.compiled.program)
        }
    };
    Ok(Plan { program, shape, cluster, granularity })
}

/// Fault seed for attempt `k` of a job (attempt 0 is the jobfile's own
/// seed; requeues stride deterministically so a crash is not replayed).
pub fn attempt_faults(base: &FaultSpec, attempt: u32) -> FaultSpec {
    let mut f = base.clone();
    f.seed = f.seed.wrapping_add(u64::from(attempt).wrapping_mul(SEED_STRIDE));
    f
}

/// What one attempt produced: the run's report plus, when the job
/// armed `recover=`, the rollback-recovery ledger. A recovered attempt
/// holds its partition for `report.elapsed` *plus* the recovery time
/// (checkpoint, quiesce, respawn and replay all happen on the job's
/// nodes), so scheduling arithmetic must use [`AttemptOutcome::duration`]
/// rather than the report's elapsed alone.
#[derive(Debug, Clone)]
pub struct AttemptOutcome {
    pub report: RunReport,
    pub recovery: Option<RecoveryLedger>,
}

impl AttemptOutcome {
    /// Wall-clock the attempt occupies its partition for.
    pub fn duration(&self) -> f64 {
        self.report.elapsed + self.recovery.as_ref().map_or(0.0, |l| l.recovery_total())
    }
}

/// Execute attempt `attempt` of a compiled job, traced, on a fresh
/// private cluster. The outcome is a pure function of
/// `(program, shape, faults, recover, attempt)` — the scheduler may
/// call this at decision time and trust the result never changes.
///
/// With `recover=` armed, survivable crash schedules are absorbed
/// in-run (buddy checkpoints + spare failover) instead of surfacing as
/// `RankCrash`: the report is byte-identical to the fault-free run and
/// the ledger carries the recovery-time charge.
pub fn run_attempt(
    job: &JobSpec,
    plan: &Plan,
    mode: ExecMode,
    attempt: u32,
) -> Result<AttemptOutcome, VpceError> {
    let faults = attempt_faults(&job.faults, attempt);
    match &job.recover {
        Some(spec) => {
            vpce_recover::run_recovering(&plan.program, &plan.cluster, mode, Tracer::enabled(), faults, spec)
                .map(|(report, ledger)| AttemptOutcome { report, recovery: Some(ledger) })
        }
        None => {
            spmd_rt::try_execute_traced(&plan.program, &plan.cluster, mode, Tracer::enabled(), faults)
                .map(|report| AttemptOutcome { report, recovery: None })
        }
    }
}

/// Fault schedule a preemption checkpoint/resume replays. A
/// recovery-armed job's *observable* timeline is the fault-free one —
/// crashes are absorbed below the fence level by rollback recovery —
/// so its snapshots are taken (and resumed) against a clean schedule;
/// otherwise preempting before an absorbed crash would spuriously
/// surface the crash the recovery layer already handled.
fn preempt_faults(job: &JobSpec, attempt: u32) -> FaultSpec {
    if job.recover.is_some() {
        FaultSpec::off()
    } else {
        attempt_faults(&job.faults, attempt)
    }
}

/// Checkpoint attempt `attempt` of a compiled job at top-level block
/// boundary `boundary` (1-based; see `spmd_rt::checkpoint`). The
/// snapshot is a pure function of `(program, shape, faults, attempt,
/// boundary)`, so `vpce-serve` can preempt a "running" job at decision
/// time and later resume it byte-identically.
pub fn checkpoint_attempt(
    job: &JobSpec,
    plan: &Plan,
    mode: ExecMode,
    attempt: u32,
    boundary: usize,
) -> Result<spmd_rt::Snapshot, VpceError> {
    let faults = preempt_faults(job, attempt);
    spmd_rt::checkpoint::checkpoint_at(&plan.program, &plan.cluster, mode, faults, boundary)
}

/// Resume a checkpointed attempt on a fresh private cluster (possibly
/// a different partition rectangle of the same shape). The report
/// covers the remaining blocks only; its arrays equal an
/// uninterrupted run's byte for byte.
pub fn resume_attempt(
    job: &JobSpec,
    plan: &Plan,
    mode: ExecMode,
    attempt: u32,
    snap: &spmd_rt::Snapshot,
) -> Result<RunReport, VpceError> {
    let faults = preempt_faults(job, attempt);
    spmd_rt::checkpoint::resume(&plan.program, &plan.cluster, mode, faults, snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::Runner;
    use cluster_sim::partition_shape;

    fn no_loader(p: &str) -> Result<String, String> {
        Err(format!("no loader for `{p}` in tests"))
    }

    /// Admission as the scheduler performs it: compile + dry run.
    fn prepare_on(
        job: &JobSpec,
        mode: ExecMode,
        machine: Option<&MachineSpec>,
    ) -> Result<Rc<Prepared>, VpceError> {
        Runner::with_loader(mode, &no_loader).with_machine(machine.cloned()).prepare(job)
    }

    fn prepare(job: &JobSpec, mode: ExecMode) -> Result<Rc<Prepared>, VpceError> {
        prepare_on(job, mode, None)
    }

    fn mm_job(name: &str, ranks: usize) -> JobSpec {
        let mut j = JobSpec::new(name, JobSource::Workload("mm".into()), ranks);
        j.params.push(("N".into(), 8));
        j
    }

    #[test]
    fn prepare_compiles_and_pins_the_clean_baseline() {
        let job = mm_job("mm0", 2);
        let p = prepare(&job, ExecMode::Full).unwrap();
        assert!(p.clean.report.elapsed > 0.0);
        assert!(!p.clean.report.arrays.is_empty());
        assert_eq!(p.plan.shape.num_nodes(), 2);
        // The attempt path reproduces the dry run exactly when faults
        // are off.
        let out = run_attempt(&job, &p.plan, ExecMode::Full, 0).unwrap();
        assert_eq!(out.report.elapsed, p.clean.report.elapsed);
        assert_eq!(out.report.arrays, p.clean.report.arrays);
        assert!(out.report.trace.is_some(), "attempts always trace");
        assert!(out.recovery.is_none(), "no ledger without recover=");
        assert_eq!(out.duration(), p.clean.report.elapsed);
    }

    #[test]
    fn bad_jobs_are_rejected_with_typed_errors() {
        let job = JobSpec::new("w", JobSource::Workload("nope".into()), 2);
        let e = prepare(&job, ExecMode::Full).unwrap_err();
        assert_eq!(e.exit_code(), 4);
        assert!(e.to_string().contains("unknown workload"), "{e}");

        let job = JobSpec::new("p", JobSource::Path("x.f".into()), 2);
        let e = prepare(&job, ExecMode::Full).unwrap_err();
        assert!(e.to_string().contains("no loader"), "{e}");

        let job = JobSpec::new("syn", JobSource::Inline("PROGRAM T\nX = \nEND\n".into()), 2);
        let e = prepare(&job, ExecMode::Full).unwrap_err();
        assert_eq!(e.kind(), "admission-rejected");
        assert!(e.to_string().contains("front-end"), "{e}");

        // An override naming no PARAMETER of the program is refused too.
        let mut job = mm_job("nn", 2);
        job.params.push(("NN".into(), 32));
        let e = prepare(&job, ExecMode::Full).unwrap_err();
        assert_eq!(e.exit_code(), 4);
        assert!(e.to_string().contains("no PARAMETER `NN`"), "{e}");
        assert!(e.to_string().contains("declared PARAMETERs: N"), "{e}");
    }

    #[test]
    fn preemption_hooks_resume_byte_identically() {
        let job = mm_job("mm0", 2);
        let resumed = [ExecMode::Full, ExecMode::Analytic].map(|mode| {
            let p = prepare(&job, mode).unwrap();
            let full = run_attempt(&job, &p.plan, mode, 0).unwrap();
            let snap = checkpoint_attempt(&job, &p.plan, mode, 0, 1).unwrap();
            assert_eq!(snap.elapsed, full.report.boundaries[0], "{mode:?}");
            let rep = resume_attempt(&job, &p.plan, mode, 0, &snap).unwrap();
            assert_eq!(rep.arrays, full.report.arrays, "{mode:?}: preempt+resume equals uninterrupted");
            assert_eq!(rep.scalars, full.report.scalars, "{mode:?}");
            rep
        });
        // An analytic slave's windows are length-only; restoring into
        // them costs, and the remainder runs, exactly as in `Full`.
        let [full, ana] = resumed;
        assert_eq!(full.elapsed, ana.elapsed);
        assert_eq!(full.boundaries, ana.boundaries);
        assert_eq!(full.rank_stats, ana.rank_stats);
        assert_eq!(full.net, ana.net);
    }

    #[test]
    fn recover_armed_attempts_absorb_crashes_and_charge_recovery_time() {
        let mut job = mm_job("mm0", 4);
        job.recover = Some(vpce_recover::RecoverSpec::default());
        let p = prepare(&job, ExecMode::Full).unwrap();
        // Find a seed whose crash schedule kills the plain attempt.
        // Crash-only (no transport noise), so the recovered report is
        // byte-identical to the fault-free baseline.
        let mut hit = false;
        for seed in 0..64u64 {
            job.recover = None;
            job.faults = FaultSpec::parse(&format!("crash=0.5,seed={seed}")).unwrap();
            if run_attempt(&job, &p.plan, ExecMode::Full, 0).is_ok() {
                continue;
            }
            job.recover = Some(vpce_recover::RecoverSpec::default());
            // Not every crash schedule is survivable (a rank and all
            // its buddies may die together); scan on until one is.
            let Ok(out) = run_attempt(&job, &p.plan, ExecMode::Full, 0) else { continue };
            assert_eq!(out.report.arrays, p.clean.report.arrays, "byte-identical to fault-free");
            assert_eq!(out.report.elapsed, p.clean.report.elapsed);
            let ledger = out.recovery.as_ref().expect("recover= attaches a ledger");
            assert!(ledger.absorbed(), "the crash was rolled back");
            assert!(ledger.recovery_total() > 0.0);
            assert_eq!(out.duration(), p.clean.report.elapsed + ledger.recovery_total());
            hit = true;
            break;
        }
        assert!(hit, "no crashing seed in 0..64");
        // Preemption hooks replay the *fault-free* schedule for
        // recovery-armed jobs: resume equals the clean remainder.
        let snap = checkpoint_attempt(&job, &p.plan, ExecMode::Full, 0, 1).unwrap();
        let rep = resume_attempt(&job, &p.plan, ExecMode::Full, 0, &snap).unwrap();
        assert_eq!(rep.arrays, p.clean.report.arrays);
    }

    #[test]
    fn attempt_seeds_stride_deterministically() {
        let base = FaultSpec::parse("crashy,seed=7").unwrap();
        assert_eq!(attempt_faults(&base, 0).seed, 7);
        let a1 = attempt_faults(&base, 1);
        let a1_again = attempt_faults(&base, 1);
        assert_eq!(a1.seed, a1_again.seed);
        assert_ne!(a1.seed, base.seed);
        assert_ne!(attempt_faults(&base, 2).seed, a1.seed);
        assert_eq!(a1.rank_crash, base.rank_crash, "only the seed changes");
    }

    #[test]
    fn paper_machine_prepares_byte_identically_to_no_machine() {
        // Every rank count up to the paper's 4x4 mesh, the awkward ones
        // (3, 5, 6, 7, ...) included: their partitions carry phantom
        // router cells. The reference is the paper machine on the
        // carved sub-mesh.
        let paper = MachineSpec::default();
        for ranks in 1..=16 {
            let job = mm_job("mm0", ranks);
            let bare = prepare(&job, ExecMode::Full).unwrap();
            let with = prepare_on(&job, ExecMode::Full, Some(&paper)).unwrap();
            let shape = partition_shape(ranks);
            let mut reference = ClusterConfig::paper_n(ranks);
            reference.net.topology = vbus_sim::Topology::mesh_with(shape, ranks);
            let reference = format!("{reference:?}");
            for p in [&bare, &with] {
                assert_eq!(p.plan.shape, shape, "ranks={ranks}");
                assert_eq!(format!("{:?}", p.plan.cluster), reference, "ranks={ranks}");
            }
            assert_eq!(with.clean.report.elapsed.to_bits(), bare.clean.report.elapsed.to_bits());
            assert_eq!(with.clean.report.arrays, bare.clean.report.arrays, "ranks={ranks}");
            let a = run_attempt(&job, &bare.plan, ExecMode::Full, 0).unwrap();
            let b = run_attempt(&job, &with.plan, ExecMode::Full, 0).unwrap();
            assert_eq!(a.report.elapsed.to_bits(), b.report.elapsed.to_bits(), "ranks={ranks}");
            assert_eq!(a.report.arrays, b.report.arrays, "ranks={ranks}");
        }
    }

    #[test]
    fn job_machine_names_resolve_and_override_the_default() {
        let mut job = mm_job("mm0", 2);
        job.machine = Some("fast-ethernet".into());
        // The job's own machine wins over the batch default.
        let default = MachineSpec::default();
        let p = prepare_on(&job, ExecMode::Full, Some(&default)).unwrap();
        let bare = prepare(&mm_job("mm0", 2), ExecMode::Full).unwrap();
        assert_ne!(
            p.clean.report.elapsed.to_bits(),
            bare.clean.report.elapsed.to_bits(),
            "a shared-medium NIC must time differently from the V-Bus"
        );
        assert_eq!(p.clean.report.arrays, bare.clean.report.arrays, "results stay numerics-identical");

        job.machine = Some("pdp11".into());
        let e = prepare_on(&job, ExecMode::Full, None).unwrap_err();
        assert_eq!(e.exit_code(), 4, "{e}");
        assert!(e.to_string().contains("unknown machine"), "{e}");
    }

    #[test]
    fn infeasible_machine_shapes_are_admission_rejections() {
        // A 6-rank job on a hypercube fabric has no power-of-two
        // sub-cube — the lowering failure surfaces at admission.
        let mut job = mm_job("mm0", 6);
        job.machine = Some("hypercube".into());
        let e = prepare_on(&job, ExecMode::Full, None).unwrap_err();
        assert_eq!(e.exit_code(), 4, "{e}");
        assert!(e.to_string().contains("hypercube"), "{e}");
    }

    #[test]
    fn zoo_machines_run_attempts_end_to_end() {
        for name in ["torus", "torus3d", "crossbar", "fattree"] {
            let mut job = mm_job("mm0", 4);
            job.machine = Some(name.to_string());
            let p = prepare_on(&job, ExecMode::Full, None).unwrap();
            let out = run_attempt(&job, &p.plan, ExecMode::Full, 0).unwrap();
            assert_eq!(out.report.arrays, p.clean.report.arrays, "{name}");
            assert!(out.report.elapsed > 0.0, "{name}");
        }
    }
}
