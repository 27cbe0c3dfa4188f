//! Memoising execution layer under the scheduler.
//!
//! Every scheduling decision rests on attempt outcomes that are *pure
//! functions* of `(job record, attempt)` (and, for preemption, the
//! boundary index) — see [`crate::run`]. The runner memoises them, so
//! the scheduler may ask for the same outcome at every placement pass
//! and a kill/restart matrix that replays the same batch hundreds of
//! times pays for each compile and each simulated run exactly once.
//! Caching is invisible to results by construction: keys are the jobs'
//! canonical record strings, which pin every field an outcome depends
//! on. Hits hand out shared handles, never copies of the arrays.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use spmd_rt::{ExecMode, Snapshot, VpceError};
use vpce_machine::MachineSpec;

use crate::job::JobSpec;
use crate::run::{self, AttemptOutcome, Prepared, SourceLoader};

type Key = (String, u32);
type CkptKey = (String, u32, usize);
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
    /// record string stays a complete cache key.
    loader: &'l SourceLoader<'l>,
    prepared: Memo<String, Prepared>,
    runs: Memo<Key, AttemptOutcome>,
    snaps: Memo<CkptKey, Snapshot>,
    resumes: Memo<CkptKey, AttemptOutcome>,
}

/// Look `key` up in `memo`, computing and remembering it on a miss.
fn memoised<K: std::hash::Hash + Eq, V>(
    memo: &Memo<K, V>,
    key: K,
    compute: impl FnOnce() -> Result<V, VpceError>,
) -> Result<Rc<V>, VpceError> {
    if let Some(hit) = memo.borrow().get(&key) {
        return hit.clone();
    }
    let out = compute().map(Rc::new);
    memo.borrow_mut().insert(key, out.clone());
    out
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

    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The default machine description jobs without `machine=` get.
    pub fn machine(&self) -> Option<&MachineSpec> {
        self.machine.as_ref()
    }

    /// Compile + fault-free dry run (admission).
    pub fn prepare(&self, spec: &JobSpec) -> Result<Rc<Prepared>, VpceError> {
        memoised(&self.prepared, spec.to_record(), || {
            run::prepare_on(spec, self.loader, self.mode, self.machine.as_ref())
        })
    }

    /// Outcome of attempt `attempt` (traced, on a fresh private
    /// cluster). With `recover=` armed the outcome carries the
    /// rollback-recovery ledger alongside the report.
    pub fn run(
        &self,
        spec: &JobSpec,
        prepared: &Prepared,
        attempt: u32,
    ) -> Result<Rc<AttemptOutcome>, VpceError> {
        memoised(&self.runs, (spec.to_record(), attempt), || {
            run::run_attempt(spec, prepared, self.mode, attempt)
        })
    }

    /// Fence-exact snapshot of attempt `attempt` at block boundary
    /// `boundary`.
    pub fn checkpoint(
        &self,
        spec: &JobSpec,
        prepared: &Prepared,
        attempt: u32,
        boundary: usize,
    ) -> Result<Rc<Snapshot>, VpceError> {
        memoised(&self.snaps, (spec.to_record(), attempt, boundary), || {
            run::checkpoint_attempt(spec, prepared, self.mode, attempt, boundary)
        })
    }

    /// Resume attempt `attempt` from the boundary-`boundary` snapshot.
    /// The remainder replays the recovered (fault-free) timeline — a
    /// recovery charge was paid before the preemption — so the outcome
    /// carries no ledger.
    pub fn resume(
        &self,
        spec: &JobSpec,
        prepared: &Prepared,
        attempt: u32,
        boundary: usize,
    ) -> Result<Rc<AttemptOutcome>, VpceError> {
        memoised(&self.resumes, (spec.to_record(), attempt, boundary), || {
            let snap = self.checkpoint(spec, prepared, attempt, boundary)?;
            run::resume_attempt(spec, prepared, self.mode, attempt, &snap)
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
        let one = r.run(&job, &p, 0).unwrap();
        let two = r.run(&job, &p, 0).unwrap();
        assert!(Rc::ptr_eq(&one, &two), "a hit shares the outcome, it does not copy it");
        assert_eq!(one.report.arrays, two.report.arrays);
        assert_eq!(one.report.elapsed, two.report.elapsed);
        let fresh = run::run_attempt(&job, &p, ExecMode::Full, 0).unwrap();
        assert_eq!(one.report.arrays, fresh.report.arrays);
        // A preempt+resume through the cache is byte-identical too.
        let resumed = r.resume(&job, &p, 0, 1).unwrap();
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
        let ra = r.run(&a, &pa, 0).unwrap();
        let rb = r.run(&b, &pb, 0).unwrap();
        assert_ne!(ra.report.elapsed, rb.report.elapsed, "different N, different makespan");
    }
}
