//! Memoising execution layer under the scheduler.
//!
//! Every scheduling decision rests on attempt outcomes that are *pure
//! functions* of `(work, attempt)` (and, for preemption, the boundary
//! index) — see [`crate::run`]. The runner memoises them, so the
//! scheduler may ask for the same outcome at every placement pass, a
//! kill/restart matrix that replays the same batch hundreds of times
//! pays for each compile and each simulated run exactly once, and so
//! does a storm that submits one program under many names. Caching is
//! invisible to results by construction: the key is
//! [`JobSpec::work_key`], the outcome's whole input — every field an
//! outcome depends on and none that only says who asks, when and how
//! urgently. Hits hand out shared handles, never copies of the arrays.
//! The front end's analysis depends on less — the program text and its
//! `PARAMETER` overrides — so jobs that differ in ranks, grain, faults
//! or machine share one [`polaris_fe::AnalyzedProgram`], translated once
//! ([`Translated`]): every plan of it points at the same statements.
//!
//! There is one way to execute a job. The admission dry run is attempt
//! 0 of the job's fault- and recover-free copy, through the same
//! [`Runner::run`] table as every other attempt — so a job that arms
//! no faults finds its attempt 0 already there.
//!
//! Because admission is pure and memoised, it can run ahead of the
//! scheduler and side by side: [`Runner::prepare_all`] compiles and
//! dry-runs a session's distinct pieces of work on every core at once,
//! so the serial scheduler that follows finds each verdict in the
//! table. [`Runner::prepare`] is the same pass over one job.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use polaris_be::Translated;
use spmd_rt::{ExecMode, Snapshot, VpceError};
use vpce_machine::MachineSpec;

use crate::job::JobSpec;
use crate::run::{self, AttemptOutcome, Plan, Prepared, SourceLoader};

type Key = (String, u32);
type CkptKey = (String, u32, usize);
/// Resolved program text and `PARAMETER` overrides.
type SourceKey = (String, Vec<(String, i64)>);
type Memo<K, V> = RefCell<HashMap<K, Result<Rc<V>, VpceError>>>;

/// The loader of a runner built without one: jobs must carry their
/// program (`workload=`/`inline=`), the rule the journalled service
/// submits under.
fn self_contained(path: &str) -> Result<String, String> {
    Err(format!("serve jobs must be self-contained, got src=`{path}`"))
}

/// One per `run_batch` call; shared across daemon incarnations within
/// one serve session (and across the whole kill matrix in tests).
pub struct Runner<'l> {
    mode: ExecMode,
    /// Default machine description (`--machine` / the jobfile header).
    /// A fixed launch parameter like `mode`, not journal state: jobs
    /// carrying their own `machine=` (a built-in name, part of their
    /// records) override it.
    machine: Option<MachineSpec>,
    /// Resolves `src=` paths; fixed for the runner's life, so the
    /// work key stays a complete cache key.
    loader: &'l SourceLoader<'l>,
    /// Threads [`Runner::prepare_all`] admits on.
    workers: usize,
    analyzed: Memo<SourceKey, Translated<'static>>,
    prepared: Memo<String, Prepared>,
    runs: Memo<Key, AttemptOutcome>,
    snaps: Memo<CkptKey, Snapshot>,
    resumes: Memo<CkptKey, AttemptOutcome>,
}

/// Look `key` up in `memo`, computing and remembering it on a miss.
fn memoised<K: std::hash::Hash + Eq, V>(
    memo: &Memo<K, V>,
    key: K,
    compute: impl FnOnce(&K) -> Result<V, VpceError>,
) -> Result<Rc<V>, VpceError> {
    if let Some(hit) = memo.borrow().get(&key) {
        return hit.clone();
    }
    let out = compute(&key).map(Rc::new);
    memo.borrow_mut().insert(key, out.clone());
    out
}

/// `e` as `spec`'s own: a remembered refusal names whichever job asked
/// first.
fn refusal_of(spec: &JobSpec, e: VpceError) -> VpceError {
    match e {
        VpceError::AdmissionRejected { reason, .. } => run::reject(spec, reason),
        other => other,
    }
}

impl Runner<'static> {
    /// A runner for self-contained jobs on the paper machine.
    pub fn new(mode: ExecMode) -> Self {
        Runner::with_loader(mode, &self_contained)
    }
}

impl<'l> Runner<'l> {
    /// A runner that resolves `src=` jobs through `loader` (the batch
    /// front door).
    pub fn with_loader(mode: ExecMode, loader: &'l SourceLoader<'l>) -> Self {
        Runner {
            mode,
            machine: None,
            loader,
            workers: mpi2::workers::cores(),
            analyzed: RefCell::default(),
            prepared: RefCell::default(),
            runs: RefCell::default(),
            snaps: RefCell::default(),
            resumes: RefCell::default(),
        }
    }

    /// Set the default machine description.
    pub fn with_machine(mut self, machine: Option<MachineSpec>) -> Self {
        self.machine = machine;
        self
    }

    /// Admit on `workers` threads instead of one per core. Any count
    /// gives the same tables; only speed moves.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The default machine description jobs without `machine=` get.
    pub fn machine(&self) -> Option<&MachineSpec> {
        self.machine.as_ref()
    }

    /// The front end's analysis of the job's program under its
    /// `PARAMETER` overrides, translated: both run once per (program
    /// text, overrides). A refusal names the job that asked.
    pub(crate) fn analyze(&self, spec: &JobSpec) -> Result<Rc<Translated<'static>>, VpceError> {
        let source = run::resolve_source(spec, self.loader)?;
        memoised(&self.analyzed, (source, spec.params.clone()), |(source, _)| {
            run::analyze(spec, source).map(|analyzed| Translated::new(Cow::Owned(analyzed)))
        })
        .map_err(|e| refusal_of(spec, e))
    }

    /// Compile + fault-free dry run (admission): [`Runner::prepare_all`]
    /// of one job. A refusal names the job that asked, whichever copy
    /// of the work was refused first.
    pub fn prepare(&self, spec: &JobSpec) -> Result<Rc<Prepared>, VpceError> {
        self.prepare_all([spec]);
        let verdict = self.prepared.borrow()[&spec.work_key()].clone();
        verdict.map_err(|e| refusal_of(spec, e))
    }

    /// Admit every distinct piece of work among `specs` at once; work
    /// already memoised is skipped. The machine, the front end and the
    /// translation run here, on the calling thread (they are shared
    /// `Rc`s), and a
    /// refusal from either goes straight into the table. Each compile
    /// goes to the next free worker, and so does each distinct dry run
    /// of a job [`spmd_rt::exec::workers`] carries on one thread. A
    /// larger `Full` job's dry run waits for the calling thread, one at
    /// a time, so its universe takes every core on its own and no two
    /// such transients overlap. The tables are filled in `specs` order,
    /// as admitting one job after another would fill them.
    pub fn prepare_all<'s>(&self, specs: impl IntoIterator<Item = &'s JobSpec>) {
        let (mut keys, mut dry_keys) = (HashSet::new(), HashSet::new());
        let mut todo = Vec::new();
        for spec in specs {
            let key = spec.work_key();
            if self.prepared.borrow().contains_key(&key) || !keys.insert(key.clone()) {
                continue;
            }
            let front = run::resolve_machine(spec, self.machine.as_ref())
                .and_then(|machine| Ok((machine, self.analyze(spec)?)));
            let (machine, analyzed) = match front {
                Ok(front) => front,
                Err(e) => {
                    self.prepared.borrow_mut().insert(key, Err(e));
                    continue;
                }
            };
            // Copies that differ only in faults share one dry run: the
            // first of them makes it.
            let clean = spec.fault_free();
            let dry_key = (clean.work_key(), 0);
            let dry = !self.runs.borrow().contains_key(&dry_key) && dry_keys.insert(dry_key);
            todo.push((spec, machine, analyzed, dry.then_some(clean)));
        }
        let work: Vec<_> =
            todo.iter().map(|(spec, m, a, clean)| (*spec, m, &**a, clean.as_ref())).collect();
        let mode = self.mode;
        let done = mpi2::workers::map(self.workers, &work, |&(spec, machine, analyzed, clean)| {
            let plan = run::compile(spec, analyzed, machine);
            let dry = match (&plan, clean) {
                (Ok(plan), Some(clean)) if spmd_rt::exec::workers(&plan.program, mode) == 1 => {
                    Some(run::run_attempt(clean, plan, mode, 0))
                }
                _ => None,
            };
            (plan, dry)
        });
        for ((spec, _, _, clean), (plan, dry)) in todo.iter().zip(done) {
            if let (Some(clean), Some(dry)) = (clean, dry) {
                self.runs.borrow_mut().insert((clean.work_key(), 0), dry.map(Rc::new));
            }
            // Through the table: a dry run made above is a hit, one left
            // for this thread runs now.
            let prepared = plan.and_then(|plan| {
                let clean = self
                    .run(&spec.fault_free(), &plan, 0)
                    .map_err(|e| run::reject(spec, format!("fault-free dry run: {e}")))?;
                Ok(Rc::new(Prepared { plan, clean }))
            });
            self.prepared.borrow_mut().insert(spec.work_key(), prepared);
        }
    }

    /// Outcome of attempt `attempt` (traced, on a fresh private
    /// cluster). With `recover=` armed the outcome carries the
    /// rollback-recovery ledger alongside the report.
    pub fn run(&self, spec: &JobSpec, plan: &Plan, attempt: u32) -> Result<Rc<AttemptOutcome>, VpceError> {
        memoised(&self.runs, (spec.work_key(), attempt), |_| {
            run::run_attempt(spec, plan, self.mode, attempt)
        })
    }

    /// Fence-exact snapshot of attempt `attempt` at block boundary
    /// `boundary`.
    pub fn checkpoint(
        &self,
        spec: &JobSpec,
        plan: &Plan,
        attempt: u32,
        boundary: usize,
    ) -> Result<Rc<Snapshot>, VpceError> {
        memoised(&self.snaps, (spec.work_key(), attempt, boundary), |_| {
            run::checkpoint_attempt(spec, plan, self.mode, attempt, boundary)
        })
    }

    /// Resume attempt `attempt` from the boundary-`boundary` snapshot.
    /// The remainder replays the recovered (fault-free) timeline — a
    /// recovery charge was paid before the preemption — so the outcome
    /// carries no ledger.
    pub fn resume(
        &self,
        spec: &JobSpec,
        plan: &Plan,
        attempt: u32,
        boundary: usize,
    ) -> Result<Rc<AttemptOutcome>, VpceError> {
        memoised(&self.resumes, (spec.work_key(), attempt, boundary), |_| {
            let snap = self.checkpoint(spec, plan, attempt, boundary)?;
            run::resume_attempt(spec, plan, self.mode, attempt, &snap)
                .map(|report| AttemptOutcome { report, recovery: None })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSource;

    fn mm(name: &str) -> JobSpec {
        let mut j = JobSpec::new(name, JobSource::Workload("mm".into()), 2);
        j.params.push(("N".into(), 8));
        j
    }

    #[test]
    fn cached_outcomes_equal_fresh_ones() {
        let r = Runner::new(ExecMode::Full);
        let job = mm("a");
        let p = r.prepare(&job).unwrap();
        let one = r.run(&job, &p.plan, 0).unwrap();
        let two = r.run(&job, &p.plan, 0).unwrap();
        assert!(Rc::ptr_eq(&one, &two), "a hit shares the outcome, it does not copy it");
        assert_eq!(one.report.arrays, two.report.arrays);
        assert_eq!(one.report.elapsed, two.report.elapsed);
        let fresh = run::run_attempt(&job, &p.plan, ExecMode::Full, 0).unwrap();
        assert_eq!(one.report.arrays, fresh.report.arrays);
        // A preempt+resume through the cache is byte-identical too.
        let resumed = r.resume(&job, &p.plan, 0, 1).unwrap();
        assert_eq!(resumed.report.arrays, fresh.report.arrays);
    }

    #[test]
    fn cache_keys_distinguish_specs_and_attempts() {
        let r = Runner::new(ExecMode::Full);
        let a = mm("a");
        let mut b = mm("b");
        b.params[0].1 = 12; // different N — different program
        let pa = r.prepare(&a).unwrap();
        let pb = r.prepare(&b).unwrap();
        let ra = r.run(&a, &pa.plan, 0).unwrap();
        let rb = r.run(&b, &pb.plan, 0).unwrap();
        assert_ne!(ra.report.elapsed, rb.report.elapsed, "different N, different makespan");
    }

    #[test]
    fn copies_differing_only_in_who_asks_share_one_piece_of_work() {
        let r = Runner::new(ExecMode::Full);
        let a = mm("a");
        let mut b = mm("b");
        b.tenant = "physics".into();
        b.priority = 5;
        b.arrival = 3.0;
        b.deadline = Some(9.0);
        b.retries = 0;
        let (pa, pb) = (r.prepare(&a).unwrap(), r.prepare(&b).unwrap());
        assert!(Rc::ptr_eq(&pa, &pb), "one compile, one dry run");
        for attempt in 0..2 {
            let (ra, rb) = (r.run(&a, &pa.plan, attempt).unwrap(), r.run(&b, &pb.plan, attempt).unwrap());
            assert!(Rc::ptr_eq(&ra, &rb), "attempt {attempt} executed once");
        }
        let (sa, sb) = (r.resume(&a, &pa.plan, 0, 1).unwrap(), r.resume(&b, &pb.plan, 0, 1).unwrap());
        assert!(Rc::ptr_eq(&sa, &sb), "and so is a preempted remainder");
    }

    #[test]
    fn a_fault_free_jobs_first_attempt_is_its_admission_baseline() {
        let r = Runner::new(ExecMode::Full);
        let job = mm("a");
        let p = r.prepare(&job).unwrap();
        assert!(Rc::ptr_eq(&r.run(&job, &p.plan, 0).unwrap(), &p.clean), "the dry run was attempt 0");
        assert!(!Rc::ptr_eq(&r.run(&job, &p.plan, 1).unwrap(), &p.clean));
        // A job that arms faults shares the dry run, not the attempt.
        let mut noisy = mm("n");
        noisy.faults = vpce_faults::FaultSpec::parse("light,seed=3").unwrap();
        let pn = r.prepare(&noisy).unwrap();
        assert!(Rc::ptr_eq(&pn.clean, &p.clean), "same fault-free copy");
        assert!(!Rc::ptr_eq(&r.run(&noisy, &pn.plan, 0).unwrap(), &pn.clean));
    }

    #[test]
    fn copies_differing_in_any_work_field_do_not_share() {
        let r = Runner::new(ExecMode::Full);
        let base = mm("a");
        let p = r.prepare(&base).unwrap();
        let out = r.run(&base, &p.plan, 0).unwrap();
        let variants: [(&str, fn(&mut JobSpec)); 7] = [
            ("source", |j| j.source = JobSource::Inline(vpce_workloads::mm::WORKLOAD.source.into())),
            ("ranks", |j| j.ranks = 4),
            ("params", |j| j.params[0].1 = 12),
            ("grain", |j| j.granularity = Some(lmad::Granularity::Fine)),
            ("faults", |j| j.faults = vpce_faults::FaultSpec::parse("light,seed=3").unwrap()),
            ("recover", |j| j.recover = Some(vpce_recover::RecoverSpec::default())),
            ("machine", |j| j.machine = Some("torus".into())),
        ];
        for (field, change) in variants {
            let mut other = mm("a");
            change(&mut other);
            assert_ne!(other.work_key(), base.work_key(), "{field}");
            let po = r.prepare(&other).unwrap();
            assert!(!Rc::ptr_eq(&po, &p), "{field}: its own admission");
            assert!(!Rc::ptr_eq(&r.run(&other, &po.plan, 0).unwrap(), &out), "{field}: its own attempt");
        }
    }

    /// The top-level statement lists of a plan's program.
    fn lists(program: &spmd_rt::SpmdProgram) -> Vec<&spmd_rt::Instrs> {
        let blocks = program.blocks.iter().map(|b| match b {
            spmd_rt::Block::MasterSeq(code) => code,
            spmd_rt::Block::Parallel(region) => &region.body,
        });
        blocks.chain([&program.sequential]).collect()
    }

    #[test]
    fn one_program_text_and_parameters_are_analyzed_once() {
        let r = Runner::new(ExecMode::Full);
        let base = mm("a");
        let pa = r.analyze(&base).unwrap();
        let plan = r.prepare(&base).unwrap();
        let same: [(&str, fn(&mut JobSpec)); 4] = [
            ("ranks", |j| j.ranks = 4),
            ("grain", |j| j.granularity = Some(lmad::Granularity::Fine)),
            ("faults", |j| j.faults = vpce_faults::FaultSpec::parse("light,seed=3").unwrap()),
            ("machine", |j| j.machine = Some("torus".into())),
        ];
        for (field, change) in same {
            let mut other = mm("b");
            change(&mut other);
            let other_plan = r.prepare(&other).unwrap();
            assert!(Rc::ptr_eq(&r.analyze(&other).unwrap(), &pa), "{field}: one analysis, one translation");
            let (mine, theirs) = (lists(&plan.plan.program), lists(&other_plan.plan.program));
            assert_eq!(mine.len(), theirs.len(), "{field}");
            for (a, b) in mine.into_iter().zip(theirs) {
                assert!(spmd_rt::Instrs::ptr_eq(a, b), "{field}: the plans share their statements");
            }
        }
        let mut bigger = mm("c");
        bigger.params[0].1 = 12;
        assert!(!Rc::ptr_eq(&r.analyze(&bigger).unwrap(), &pa), "params: its own analysis");
        assert_eq!(r.analyzed.borrow().len(), 2);
    }

    #[test]
    fn a_front_end_refusal_through_the_memo_names_each_asking_job() {
        let r = Runner::new(ExecMode::Full);
        let bad = JobSource::Inline("PROGRAM T\nX = \nEND\n".into());
        // Different ranks: two admissions, one front-end run.
        for (name, ranks) in [("first", 2), ("second", 4)] {
            let job = JobSpec::new(name, bad.clone(), ranks);
            match r.prepare(&job).unwrap_err() {
                VpceError::AdmissionRejected { job, reason } => {
                    assert_eq!(job, name);
                    assert!(reason.starts_with("front-end: "), "{reason}");
                }
                other => panic!("expected a rejection, got {other:?}"),
            }
        }
        assert_eq!(r.prepared.borrow().len(), 2);
        assert_eq!(r.analyzed.borrow().len(), 1, "analyzed once, refused twice");
    }

    #[test]
    fn one_pass_over_small_and_large_jobs_equals_one_job_at_a_time() {
        // 140 000 declared elements: above the one-worker bound, so its
        // dry run is left to the calling thread.
        let big = "PROGRAM T\nINTEGER I\nREAL A(140000)\nDO I = 1, 140000\n\
                   A(I) = REAL(I) * 0.5\nENDDO\nEND\n";
        let mut jobs = vec![mm("a"), JobSpec::new("big", JobSource::Inline(big.into()), 2), mm("c")];
        jobs[2].params[0].1 = 12;
        let (pass, serial) = (Runner::new(ExecMode::Full).with_workers(2), Runner::new(ExecMode::Full));
        pass.prepare_all(&jobs);
        for job in &jobs {
            let (p, s) = (pass.prepare(job).unwrap(), serial.prepare(job).unwrap());
            assert!(spmd_rt::same_bits(&p.clean.report.arrays, &s.clean.report.arrays), "{}", job.name);
            assert_eq!(p.clean.report.elapsed.to_bits(), s.clean.report.elapsed.to_bits(), "{}", job.name);
        }
        let plan = &pass.prepare(&jobs[1]).unwrap().plan;
        let shared = spmd_rt::exec::workers(&plan.program, ExecMode::Full);
        assert_eq!(shared, mpi2::workers::cores().min(2), "the big job shares its work");
        assert_eq!(pass.prepared.borrow().len(), 3);
    }

    #[test]
    fn a_rejected_copys_error_names_its_own_job() {
        let r = Runner::new(ExecMode::Full);
        for name in ["first", "second"] {
            let job = JobSpec::new(name, JobSource::Workload("nope".into()), 2);
            match r.prepare(&job).unwrap_err() {
                VpceError::AdmissionRejected { job, reason } => {
                    assert_eq!(job, name);
                    assert!(reason.contains("unknown workload"), "{reason}");
                }
                other => panic!("expected a rejection, got {other:?}"),
            }
        }
        assert_eq!(r.prepared.borrow().len(), 1, "refused once, answered twice");
    }
}
