//! The gang scheduler: one deterministic, incremental event loop that
//! both front doors drive — `vpcec --batch` ([`run_batch`]: submit
//! everything, drain, report) and `vpced` (`vpce-serve`: the same
//! calls, journalled).
//!
//! State changes enter only through [`Scheduler::submit`],
//! [`Scheduler::cancel_at`] and [`Scheduler::step`] (advance virtual
//! time one event: vacates, then cancels, then arrivals, then one
//! placement pass). All three are pure given the runner's memoised
//! outcomes, so the same input sequence reconstructs the same state
//! bit for bit — the property the service's journal recovery rests on.
//! Every externally visible decision is also emitted as a *derived op*
//! string (timestamps as exact `f64` bit patterns) for
//! [`Scheduler::take_ops`]; the service journals and cross-checks
//! them, batch ignores them.
//!
//! The placement pass over the queue — ordered by priority, then
//! fair-share ratio, then arrival, then submission:
//!
//! * **FCFS** — the head of the queue is placed first-fit; while it
//!   cannot be placed, nothing behind it may start.
//! * **Conservative backfill** — a blocked head gets a *reservation*:
//!   the earliest future time (simulating the frees of the running
//!   jobs, in vacate order) at which its rectangle fits within its
//!   tenant's quota, and where. A later job may slide past the head
//!   only if it fits right now and either provably completes before
//!   the reservation time or its rectangle is disjoint from the
//!   reserved one. Either way the reservation is never delayed, so a
//!   wide job cannot starve.
//! * **Preemption by checkpoint/restart** (the one caller-dependent
//!   bit; the service sets it, batch does not) — when the head is
//!   space-blocked and outranks a running job, the victim is ordered
//!   off its partition at its *next fence boundary*: the runner
//!   snapshots the universe there, the partition frees, and the victim
//!   re-queues holding its boundary index. Placed again it resumes
//!   from the snapshot, and because checkpoint-by-prefix is exact its
//!   final arrays are byte-identical to an uninterrupted run.
//!
//! Admission — compile plus a fault-free dry run — is pure too, so it
//! waits for the first read of a verdict: the next [`Scheduler::step`]
//! (or [`Scheduler::report`]) admits every job submitted since in one
//! pass ([`Runner::prepare_all`], on every core), and each verdict is
//! the one the job would have had at its submission.
//!
//! Attempt outcomes are *pure functions* of (program, partition shape,
//! fault schedule, attempt number) — the scheduler asks the runner for
//! them at decision time, uses the resulting makespan for backfill
//! arithmetic, and replays nothing. A fault-failed attempt still
//! occupies its partition for the fault-free makespan (the "heartbeat
//! deadline" at which the failure is detected), then the job is
//! requeued with a re-seeded schedule or declared failed once its
//! retry budget is spent. A rank crash additionally *drains* the
//! machine node that hosted the crashed rank (for good, or on
//! probation): queued jobs route around it, and queued jobs whose
//! rectangle can no longer fit anywhere fail with a typed
//! `AdmissionInfeasible`. A tenant is charged `cells × (vacate −
//! start)` when a run leaves the machine — the one rule that stays
//! right under preemption without refunds.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::rc::Rc;

use spmd_rt::{ExecMode, VpceError};
use vbus_sim::Mesh;
use vpce_machine::MachineSpec;
use vpce_trace::{EventKind, Lane, Tracer};

use crate::job::{BatchSpec, JobSpec, Policy, TenantSpec};
use crate::partition::{NodeMap, Partition};
use crate::report::{AttemptLog, BatchReport, JobRecord, JobStatus};
use crate::run::{self, AttemptOutcome, Prepared};
use crate::runner::Runner;

pub use crate::run::SourceLoader;

/// Knobs the CLI resolves before handing a batch to the scheduler.
/// Jobfile header directives win over `nodes`/`policy`; `seed`
/// (`--sched-seed`) wins over the jobfile's `seed=`.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    pub nodes: usize,
    pub policy: Policy,
    pub seed: Option<u64>,
    pub mode: ExecMode,
    /// Crashed-node probation in clean intervals (`None` = drain for
    /// good); the jobfile's `probation=` header wins over this.
    pub probation: Option<u32>,
    /// Batch-level default machine description (`--machine`); the
    /// jobfile's `machine=` header and per-job `machine=` fields win.
    /// `None` is the hard-coded paper machine.
    pub machine: Option<MachineSpec>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            nodes: 16,
            policy: Policy::Backfill,
            seed: None,
            mode: ExecMode::Full,
            probation: None,
            machine: None,
        }
    }
}

/// The batch front door: resolve the headers, submit every
/// materialised job, drain, report. `Err` is usage-level (empty batch,
/// storm name collision); every per-job failure is a typed record
/// inside the report instead.
pub fn run_batch(
    spec: &BatchSpec,
    opts: &BatchOptions,
    loader: &SourceLoader,
) -> Result<BatchReport, String> {
    let machine = match &spec.machine {
        // Header names are screened at parse time (`VPCE312`), so the
        // built-in lookup cannot miss here.
        Some(name) => Some(
            MachineSpec::builtin(name)
                .ok_or_else(|| format!("jobfile names unknown machine `{name}`"))?,
        ),
        None => opts.machine.clone(),
    };
    run_batch_on(spec, opts, &Runner::with_loader(opts.mode, loader).with_machine(machine))
}

/// [`run_batch`] on `runner`, which carries the batch's mode and
/// machine.
fn run_batch_on(spec: &BatchSpec, opts: &BatchOptions, runner: &Runner) -> Result<BatchReport, String> {
    let seed = opts.seed.or(spec.seed).unwrap_or(0);
    let jobs = spec.materialize(seed).map_err(|e| e.to_string())?;
    if jobs.is_empty() {
        return Err("jobfile submits no jobs".into());
    }
    let mut sched = Scheduler::new(runner, false);
    sched.set_nodes(spec.nodes.unwrap_or(opts.nodes))?;
    sched.set_policy(spec.policy.unwrap_or(opts.policy));
    sched.set_seed(seed);
    sched.set_probation(spec.probation.or(opts.probation));
    for t in &spec.tenants {
        sched.declare_tenant(t.clone());
    }
    for job in jobs {
        sched.submit(job)?;
    }
    sched.drain();
    Ok(sched.report())
}

/// Exact, order-independent rendering of a virtual timestamp for
/// derived ops: the raw `f64` bit pattern.
fn tbits(t: f64) -> String {
    format!("{:016x}", t.to_bits())
}

/// The whole-cluster timeline: one lane per machine node.
fn node_lanes(nodes: usize) -> Tracer {
    let tracer = Tracer::enabled();
    for n in 0..nodes {
        tracer.register_lane(Lane::Rank(n), format!("node {n}"));
    }
    tracer
}

/// An ordered stop: the run vacates its partition at `t` (the job's
/// next fence boundary), either to resume later (preemption) or for
/// good (cancel).
#[derive(Debug, Clone, Copy)]
struct Stop {
    t: f64,
    /// Global block boundary (blocks completed since program start).
    boundary: usize,
    cancel: bool,
}

/// Per-job scheduler state.
struct JobState {
    spec: JobSpec,
    /// Admission outcome: compiled + dry-run, or the typed rejection;
    /// `None` until the next step admits it.
    prepared: Option<Result<Rc<Prepared>, VpceError>>,
    /// The tenant's quota when the job was submitted: admission screens
    /// against the quotas declared before it.
    quota: Option<usize>,
    status: Option<JobStatus>,
    /// Attempts executed (or in flight); a resumed remainder is part
    /// of the attempt it was preempted from.
    attempts: u32,
    preemptions: u32,
    queue_wait: f64,
    enqueued_at: f64,
    first_start: Option<f64>,
    end: Option<f64>,
    /// Final placement (last run's partition).
    placed: Option<Partition>,
    error: Option<(String, String)>,
    /// Set while the job holds a checkpoint to resume from.
    resume_boundary: Option<usize>,
    /// A cancel landed before the job could finish.
    cancelled: bool,
    arrived: bool,
    /// Outcome of the finishing run: the report the record is built
    /// from and, when the job armed `recover=`, the rollback ledger
    /// (the recovery-time charge in its breakdown).
    finished: Option<Rc<AttemptOutcome>>,
}

impl JobState {
    /// The admitted plan's partition; a rejected job reports the paper
    /// machine's footprint for its rank count.
    fn shape(&self) -> Mesh {
        match &self.prepared {
            Some(Ok(p)) => p.plan.shape,
            _ => run::job_footprint(&MachineSpec::default(), self.spec.ranks),
        }
    }

    /// The admitted job's compiled plan and dry run.
    fn admitted(&self) -> &Prepared {
        match &self.prepared {
            Some(Ok(p)) => p,
            _ => panic!("job `{}` runs, so it was admitted", self.spec.name),
        }
    }

    fn cancelled_error(&self) -> (String, String) {
        ("cancelled".into(), format!("job `{}` cancelled by client", self.spec.name))
    }

    fn infeasible_error(&self, have: usize) -> (String, String) {
        let e = VpceError::AdmissionInfeasible {
            job: self.spec.name.clone(),
            need: self.spec.ranks,
            have,
        };
        (e.kind().into(), e.to_string())
    }
}

/// A partition currently executing a run (a fresh attempt or a
/// resumed remainder).
struct Running {
    job: usize,
    part: Partition,
    start: f64,
    end: f64,
    attempt: u32,
    outcome: Result<Rc<AttemptOutcome>, VpceError>,
    /// Boundary this run resumed from (0 = fresh start).
    resumed_from: usize,
    stop: Option<Stop>,
}

impl Running {
    /// The moment this run leaves the machine (ordered stop or natural
    /// end).
    fn vacate_t(&self) -> f64 {
        self.stop.map_or(self.end, |s| s.t)
    }

    /// The next fence boundary strictly after `t`, as `(absolute time,
    /// global boundary index)`. The final boundary is the program's
    /// end — stopping there is meaningless, so it is excluded. `None`
    /// for doomed (`Err`) outcomes, which carry no boundary times.
    fn next_boundary(&self, t: f64) -> Option<(f64, usize)> {
        let bounds = &self.outcome.as_ref().ok()?.report.boundaries;
        let inner = &bounds[..bounds.len().saturating_sub(1)];
        inner
            .iter()
            .enumerate()
            .map(|(i, b)| (self.start + b, self.resumed_from + i + 1))
            .find(|&(abs, _)| abs > t)
    }

    /// Timeline label of the run's phase span.
    fn label(&self, name: &str) -> String {
        match (self.attempt, self.resumed_from) {
            (0, 0) => name.to_string(),
            (a, 0) => format!("{name} (retry {a})"),
            (0, b) => format!("{name} (resumed@{b})"),
            (a, b) => format!("{name} (retry {a}, resumed@{b})"),
        }
    }
}

/// A queued job's next run as the runner computed it: the outcome and
/// how long it will hold its partition.
struct NextRun {
    outcome: Result<Rc<AttemptOutcome>, VpceError>,
    dur: f64,
}

/// What [`Scheduler::job`] shows of one submitted job.
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    /// `pending` (not yet arrived), `queued`, `running`, or the
    /// terminal [`JobStatus`] name.
    pub state: &'static str,
    pub tenant: &'a str,
    pub attempts: u32,
    pub preemptions: u32,
}

/// The gang scheduler. See the module docs.
pub struct Scheduler<'r> {
    runner: &'r Runner<'r>,
    /// The one caller-dependent bit: the service preempts (and marks
    /// submissions, preemptions and checkpoints on the timeline);
    /// batch does neither.
    preemptive: bool,
    nodes: usize,
    policy: Policy,
    seed: u64,
    /// Probation length for crashed nodes, in clean intervals
    /// (successful completions). `None` = permanent drain.
    probation: Option<u32>,
    map: NodeMap,
    /// Declared fair-share tenants by name (jobs naming an undeclared
    /// tenant get share 1, no quota).
    tenants: BTreeMap<String, TenantSpec>,
    /// Node-seconds charged per tenant at vacate time — the fair-share
    /// ledger the queue order normalises by share.
    usage: BTreeMap<String, f64>,
    jobs: Vec<JobState>,
    /// `jobs[pending_from..]` await their admission verdict.
    pending_from: usize,
    by_name: BTreeMap<String, usize>,
    /// Indices submitted but not yet arrived, ascending (arrival, idx).
    arrivals: Vec<usize>,
    /// Indices queued and waiting for a partition.
    queue: Vec<usize>,
    running: Vec<Running>,
    /// Pending timed cancels, ascending (t, submission order).
    cancels: Vec<(f64, usize)>,
    now: f64,
    started: bool,
    peak_concurrent: usize,
    busy_cell_s: f64,
    tracer: Tracer,
    /// Every run interval + placement, for audits and the no-overlap
    /// safety property.
    attempts: Vec<AttemptLog>,
    ops: Vec<String>,
}

impl<'r> Scheduler<'r> {
    /// An idle 16-node backfill machine with seed 0; the setters below
    /// reconfigure it before the first submission.
    pub fn new(runner: &'r Runner<'r>, preemptive: bool) -> Self {
        let nodes = 16;
        Scheduler {
            runner,
            preemptive,
            nodes,
            policy: Policy::Backfill,
            seed: 0,
            probation: None,
            map: NodeMap::new(Mesh::near_square(nodes), nodes),
            tenants: BTreeMap::new(),
            usage: BTreeMap::new(),
            jobs: Vec::new(),
            pending_from: 0,
            by_name: BTreeMap::new(),
            arrivals: Vec::new(),
            queue: Vec::new(),
            running: Vec::new(),
            cancels: Vec::new(),
            now: 0.0,
            started: false,
            peak_concurrent: 0,
            busy_cell_s: 0.0,
            tracer: node_lanes(nodes),
            attempts: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Resize the machine. Refused once anything was submitted or a
    /// step was taken: placements already refer to the old mesh.
    pub fn set_nodes(&mut self, nodes: usize) -> Result<(), String> {
        if nodes == 0 {
            return Err("batch needs at least one node".into());
        }
        if self.started || !self.jobs.is_empty() {
            return Err("nodes= must precede the first submission".into());
        }
        self.nodes = nodes;
        self.map = NodeMap::new(Mesh::near_square(nodes), nodes);
        self.tracer = node_lanes(nodes);
        Ok(())
    }

    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
    }

    /// The batch seed the report carries (storms are expanded under it
    /// by the caller).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Put crashed nodes on probation for `intervals` clean
    /// completions instead of draining them for good. `None` (the
    /// default) keeps permanent drains.
    pub fn set_probation(&mut self, intervals: Option<u32>) {
        self.probation = intervals;
    }

    /// Declare a fair-share tenant. Jobs are screened against the
    /// quotas declared *before* their submission.
    pub fn declare_tenant(&mut self, tenant: TenantSpec) {
        self.tenants.insert(tenant.name.clone(), tenant);
    }

    /// True until the first submission.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Submit one job. Its admission verdict is made at the next step,
    /// with every job submitted since, from what was declared before
    /// this call; the job enters the queue when virtual time reaches its
    /// arrival. `Err` only for a name already taken.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(), String> {
        if self.by_name.contains_key(&spec.name) {
            return Err(format!("job `{}` already submitted", spec.name));
        }
        let quota = self.quota(&spec.tenant);
        let idx = self.jobs.len();
        self.by_name.insert(spec.name.clone(), idx);
        // The new index is the largest, so it goes after every equal
        // arrival: ascending (arrival, idx) order is kept.
        let at = self
            .arrivals
            .partition_point(|&i| self.jobs[i].spec.arrival.total_cmp(&spec.arrival).is_le());
        self.arrivals.insert(at, idx);
        self.jobs.push(JobState {
            spec,
            prepared: None,
            quota,
            status: None,
            attempts: 0,
            preemptions: 0,
            queue_wait: 0.0,
            enqueued_at: 0.0,
            first_start: None,
            end: None,
            placed: None,
            error: None,
            resume_boundary: None,
            cancelled: false,
            arrived: false,
            finished: None,
        });
        Ok(())
    }

    /// Admit every job submitted since the last pass: their distinct
    /// work in one parallel pass, then each verdict in submission order
    /// from the runner's tables.
    fn admit_pending(&mut self) {
        let fresh = self.pending_from..self.jobs.len();
        let screens: Vec<_> = self.jobs[fresh.clone()].iter().map(|j| self.screen(&j.spec)).collect();
        let passed = self.jobs[fresh.clone()].iter().zip(&screens).filter(|(_, s)| s.is_ok());
        self.runner.prepare_all(passed.map(|(j, _)| &j.spec));
        for (idx, screen) in fresh.zip(screens) {
            let job = &self.jobs[idx];
            let verdict = screen.and_then(|()| self.admit(&job.spec, job.quota));
            self.jobs[idx].prepared = Some(verdict);
        }
        self.pending_from = self.jobs.len();
    }

    /// Admission of a job that passed [`Scheduler::screen`]: compile +
    /// dry run, then the tenant's `quota` — a job whose partition needs
    /// more cells than its quota can never start, so it is refused here
    /// instead of deadlocking the queue. Depends on the inputs only
    /// (never on drains or load), so replaying the inputs replays the
    /// verdicts.
    fn admit(&self, spec: &JobSpec, quota: Option<usize>) -> Result<Rc<Prepared>, VpceError> {
        let prepared = self.runner.prepare(spec)?;
        let cells = prepared.plan.shape.cols * prepared.plan.shape.rows;
        match quota {
            Some(q) if cells > q => Err(run::reject(
                spec,
                format!("partition of {cells} cells exceeds tenant `{}` quota {q}", spec.tenant),
            )),
            _ => Ok(prepared),
        }
    }

    /// What admission checks against the pristine machine before paying
    /// for anything: a positive rank count whose partition fits.
    fn screen(&self, spec: &JobSpec) -> Result<(), VpceError> {
        if spec.ranks == 0 {
            return Err(run::reject(spec, "requests zero ranks".into()));
        }
        if spec.ranks > self.nodes {
            return Err(VpceError::AdmissionInfeasible {
                job: spec.name.clone(),
                need: spec.ranks,
                have: self.nodes,
            });
        }
        let effective = run::resolve_machine(spec, self.runner.machine())?;
        let shape = run::job_footprint(&effective, spec.ranks);
        if NodeMap::new(self.map.mesh(), self.nodes).find_fit(shape).is_none() {
            return Err(run::reject(
                spec,
                format!(
                    "partition {}x{} does not fit the {}-node machine",
                    shape.cols, shape.rows, self.nodes
                ),
            ));
        }
        Ok(())
    }

    /// Order `job` cancelled at virtual time `t` (finite, not before
    /// 0 — callers validate what they parse): queued jobs leave the
    /// queue, running ones stop at their next fence boundary, settled
    /// ones are a no-op. `Err` for a name never submitted.
    pub fn cancel_at(&mut self, job: &str, t: f64) -> Result<(), String> {
        let &idx = self.by_name.get(job).ok_or_else(|| format!("no job `{job}`"))?;
        let at = self.cancels.partition_point(|c| c.0.total_cmp(&t).then(c.1.cmp(&idx)).is_le());
        self.cancels.insert(at, (t, idx));
        Ok(())
    }

    /// Derived ops emitted since the last take.
    pub fn take_ops(&mut self) -> Vec<String> {
        std::mem::take(&mut self.ops)
    }

    /// Where `name` stands right now (`None`: never submitted).
    pub fn job(&self, name: &str) -> Option<JobView<'_>> {
        let &idx = self.by_name.get(name)?;
        let j = &self.jobs[idx];
        let state = match j.status {
            Some(s) => s.name(),
            None if self.running.iter().any(|r| r.job == idx) => "running",
            None if j.arrived => "queued",
            None => "pending",
        };
        Some(JobView {
            state,
            tenant: &j.spec.tenant,
            attempts: j.attempts,
            preemptions: j.preemptions,
        })
    }

    // ----- fair-share / quota helpers -----

    /// Fair-share weight of `tenant` (1 when undeclared).
    fn share(&self, tenant: &str) -> f64 {
        self.tenants.get(tenant).map_or(1.0, |t| t.share)
    }

    /// Concurrent-cell quota of `tenant` (unbounded when undeclared).
    fn quota(&self, tenant: &str) -> Option<usize> {
        self.tenants.get(tenant).and_then(|t| t.quota)
    }

    /// Node cells `tenant` currently holds across running partitions.
    fn held_cells(&self, tenant: &str) -> usize {
        self.running
            .iter()
            .filter(|r| self.jobs[r.job].spec.tenant == tenant)
            .map(|r| r.part.nodes.len())
            .sum()
    }

    /// Would starting a `cells`-cell partition keep `tenant` within
    /// its quota?
    fn quota_allows(&self, tenant: &str, cells: usize) -> bool {
        match self.quota(tenant) {
            Some(q) => self.held_cells(tenant) + cells <= q,
            None => true,
        }
    }

    /// Accumulated usage normalised by share — the fair-share sort
    /// key: the tenant that has consumed least relative to its weight
    /// goes first.
    fn fair_ratio(&self, tenant: &str) -> f64 {
        self.usage.get(tenant).copied().unwrap_or(0.0) / self.share(tenant)
    }

    /// Queue order: priority descending, then fair-share ratio
    /// ascending (the under-served tenant goes first), then arrival,
    /// then submission order. With a single tenant every queued job
    /// carries the same ratio, so the order degenerates to the classic
    /// priority/arrival one.
    fn sort_queue(&mut self) {
        let mut keyed: Vec<(Reverse<i64>, f64, f64, usize)> = self
            .queue
            .iter()
            .map(|&i| {
                let j = &self.jobs[i];
                (Reverse(j.spec.priority), self.fair_ratio(&j.spec.tenant), j.spec.arrival, i)
            })
            .collect();
        keyed.sort_by(|a, b| {
            a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.total_cmp(&b.2)).then(a.3.cmp(&b.3))
        });
        self.queue = keyed.into_iter().map(|k| k.3).collect();
    }

    // ----- the event loop -----

    /// Process everything due at the current virtual time, run one
    /// placement pass, then advance to the next event. Returns `false`
    /// when no event remains: everything submitted has settled.
    /// Emitted ops accumulate for [`Scheduler::take_ops`].
    pub fn step(&mut self) -> bool {
        self.started = true;
        self.admit_pending();
        // Vacates first (they free capacity), then cancels, then
        // arrivals — all at times <= now, in deterministic order.
        self.complete_due();
        self.cancel_due();
        self.arrive_due();
        self.schedule_pass();
        // With no future events and an idle machine, anything still
        // queued can never start — fail it typed rather than spin.
        if self.running.is_empty()
            && self.arrivals.is_empty()
            && self.cancels.is_empty()
            && !self.queue.is_empty()
        {
            self.fail_stuck_queue();
        }
        // Exact virtual-time comparison: every time here was computed
        // once and is reused, never re-derived.
        let next_event = self
            .running
            .iter()
            .map(Running::vacate_t)
            .chain(self.cancels.first().map(|c| c.0))
            .chain(self.arrivals.first().map(|&i| self.jobs[i].spec.arrival))
            .min_by(f64::total_cmp);
        match next_event {
            Some(t) => {
                self.now = self.now.max(t);
                true
            }
            None => false,
        }
    }

    /// Run to completion.
    pub fn drain(&mut self) {
        while self.step() {}
    }

    fn complete_due(&mut self) {
        loop {
            // Deterministic completion order: (vacate time, job idx).
            let due = self
                .running
                .iter()
                .enumerate()
                .filter(|(_, r)| r.vacate_t() <= self.now)
                .min_by(|(_, a), (_, b)| {
                    a.vacate_t().total_cmp(&b.vacate_t()).then(a.job.cmp(&b.job))
                })
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let r = self.running.remove(i);
            self.map.free(&r.part);
            let t_end = r.vacate_t();
            let job = &mut self.jobs[r.job];
            job.placed = Some(r.part.clone());
            // The one charging rule: cells x the span actually held.
            let cell_s = r.part.nodes.len() as f64 * (t_end - r.start);
            self.busy_cell_s += cell_s;
            *self.usage.entry(job.spec.tenant.clone()).or_insert(0.0) += cell_s;
            let label = r.label(&job.spec.name);
            for &node in &r.part.nodes {
                self.tracer.push(
                    Lane::Rank(node),
                    r.start,
                    t_end,
                    EventKind::Phase { name: label.clone() },
                );
            }
            self.attempts.push(AttemptLog {
                job: job.spec.name.clone(),
                attempt: r.attempt,
                start: r.start,
                end: t_end,
                partition: r.part.clone(),
                ok: r.stop.is_some() || r.outcome.is_ok(),
            });
            match r.stop {
                Some(stop) => self.settle_stop(r, stop),
                None => self.settle_end(r),
            }
        }
    }

    /// A run reached an ordered stop: checkpoint + requeue (preempt)
    /// or final cancel.
    fn settle_stop(&mut self, r: Running, stop: Stop) {
        let t = stop.t;
        let job = &mut self.jobs[r.job];
        let name = job.spec.name.clone();
        if stop.cancel {
            job.status = Some(JobStatus::Failed);
            job.end = Some(t);
            job.error = Some(job.cancelled_error());
            self.ops.push(format!("cancel {name} t={} boundary={}", tbits(t), stop.boundary));
            return;
        }
        // Preemption: snapshot at the boundary (memoised + pure), then
        // requeue holding the boundary index.
        let bytes = self
            .runner
            .checkpoint(&job.spec, &job.admitted().plan, r.attempt, stop.boundary)
            .map_or(0, |s| s.payload_bytes());
        job.preemptions += 1;
        job.resume_boundary = Some(stop.boundary);
        job.enqueued_at = t;
        self.queue.push(r.job);
        let node0 = r.part.nodes.first().copied().unwrap_or(0);
        self.tracer.push(
            Lane::Rank(node0),
            t,
            t,
            EventKind::Checkpoint { job: name.clone(), boundary: stop.boundary },
        );
        self.ops.push(format!(
            "checkpoint {name} boundary={} t={} bytes={bytes}",
            stop.boundary,
            tbits(t)
        ));
    }

    /// A run finished naturally (success, or heartbeat-detected
    /// failure).
    fn settle_end(&mut self, r: Running) {
        let job = &mut self.jobs[r.job];
        let name = job.spec.name.clone();
        match r.outcome {
            Ok(out) => {
                job.status = Some(JobStatus::Done);
                job.end = Some(r.end);
                // Audit record for absorbed crashes, ahead of the
                // completion op: recovery decisions replay (and
                // cross-check) like every other derived op.
                if let Some(l) = out.recovery.as_ref().filter(|l| l.absorbed()) {
                    self.ops.push(format!(
                        "recover {name} t={} rollbacks={} respawned={} replay={}",
                        tbits(r.end),
                        l.rollbacks,
                        l.respawned,
                        l.replay_regions
                    ));
                }
                job.finished = Some(out);
                self.ops.push(format!("complete {name} t={} status=done", tbits(r.end)));
                // A clean completion is one clean interval: tick every
                // probationary node (completions settle in
                // deterministic (end, job) order, so reintegration
                // times are a pure function of the inputs).
                self.map.tick_probation();
            }
            Err(e) => {
                // A crashed rank takes its machine node down with it —
                // for good, or on probation.
                if let VpceError::RankCrash { rank, .. } = &e {
                    if let Some(&node) = r.part.nodes.get(*rank) {
                        match self.probation {
                            Some(p) => self.map.drain_probation(node, p),
                            None => self.map.drain(node),
                        }
                    }
                }
                let retryable = e.is_injected() && r.attempt < job.spec.retries && !job.cancelled;
                if retryable && self.map.feasible(job.shape()) {
                    job.enqueued_at = r.end;
                    job.resume_boundary = None;
                    self.queue.push(r.job);
                    self.ops.push(format!(
                        "requeue {name} attempt={} t={}",
                        r.attempt + 1,
                        tbits(r.end)
                    ));
                } else {
                    job.status = Some(JobStatus::Failed);
                    job.end = Some(r.end);
                    job.error = Some(if job.cancelled {
                        job.cancelled_error()
                    } else if retryable {
                        job.infeasible_error(self.map.usable_nodes())
                    } else {
                        (e.kind().into(), e.to_string())
                    });
                    self.ops.push(format!("complete {name} t={} status=failed", tbits(r.end)));
                }
                // Drains may strand other queued jobs; fail them now
                // with the same typed error rather than at loop exit.
                self.sweep_infeasible_queue();
            }
        }
    }

    fn cancel_due(&mut self) {
        while let Some(&(t, idx)) = self.cancels.first() {
            if t > self.now {
                break;
            }
            self.cancels.remove(0);
            self.do_cancel(idx, t);
        }
    }

    fn do_cancel(&mut self, idx: usize, t: f64) {
        let name = self.jobs[idx].spec.name.clone();
        if self.jobs[idx].status.is_some() {
            // Already settled — a deterministic no-op.
            self.ops.push(format!("cancel {name} t={} noop", tbits(t)));
            return;
        }
        self.jobs[idx].cancelled = true;
        if let Some(qpos) = self.queue.iter().position(|&i| i == idx) {
            self.queue.remove(qpos);
            let job = &mut self.jobs[idx];
            job.status = Some(JobStatus::Failed);
            job.end = Some(t);
            job.queue_wait += t - job.enqueued_at;
            job.error = Some(job.cancelled_error());
            self.ops.push(format!("cancel {name} t={} queued", tbits(t)));
            return;
        }
        if let Some(r) = self.running.iter_mut().find(|r| r.job == idx) {
            if r.stop.is_some() {
                self.ops.push(format!("cancel {name} t={} pending", tbits(t)));
            } else if let Some((bt, boundary)) = r.next_boundary(t) {
                r.stop = Some(Stop { t: bt, boundary, cancel: true });
                self.ops.push(format!(
                    "cancel {name} t={} boundary={boundary} vacate={}",
                    tbits(t),
                    tbits(bt)
                ));
            } else {
                // No future boundary (doomed attempt or last block):
                // let it run out; the cancelled flag blocks requeue.
                self.ops.push(format!("cancel {name} t={} deferred", tbits(t)));
            }
            return;
        }
        // Not yet arrived: it will settle as cancelled at arrival.
        self.ops.push(format!("cancel {name} t={} early", tbits(t)));
    }

    fn arrive_due(&mut self) {
        while let Some(&idx) = self.arrivals.first() {
            let job = &mut self.jobs[idx];
            let t = job.spec.arrival;
            if t > self.now {
                break;
            }
            self.arrivals.remove(0);
            job.arrived = true;
            let name = job.spec.name.clone();
            if self.preemptive {
                self.tracer.push(Lane::Rank(0), t, t, EventKind::Submit { job: name.clone() });
            }
            let verdict = if job.cancelled {
                job.status = Some(JobStatus::Failed);
                job.end = Some(t);
                job.error = Some(job.cancelled_error());
                "cancelled".to_string()
            } else if let Some(Err(e)) = &job.prepared {
                job.status = Some(JobStatus::Rejected);
                job.error = Some((e.kind().into(), e.to_string()));
                format!("reject {}", e.kind())
            } else if !self.map.feasible(job.shape()) {
                job.status = Some(JobStatus::Rejected);
                let err = job.infeasible_error(self.map.usable_nodes());
                let verdict = format!("reject {}", err.0);
                job.error = Some(err);
                verdict
            } else {
                job.enqueued_at = self.now;
                self.queue.push(idx);
                "ok".to_string()
            };
            self.ops.push(format!("admit {name} t={} {verdict}", tbits(t)));
        }
    }

    /// Fail job `idx` (already off the queue) at the current time with
    /// `error` as its typed record.
    fn fail_queued(&mut self, idx: usize, error: (String, String)) {
        let job = &mut self.jobs[idx];
        job.status = Some(JobStatus::Failed);
        job.end = Some(self.now);
        job.queue_wait += self.now - job.enqueued_at;
        job.error = Some(error);
        self.ops.push(format!("complete {} t={} status=failed", job.spec.name, tbits(self.now)));
    }

    fn sweep_infeasible_queue(&mut self) {
        let queue = std::mem::take(&mut self.queue);
        for idx in queue {
            if self.map.feasible(self.jobs[idx].shape()) {
                self.queue.push(idx);
            } else {
                let err = self.jobs[idx].infeasible_error(self.map.usable_nodes());
                self.fail_queued(idx, err);
            }
        }
    }

    /// Outcome of the next run of `idx` — a fresh attempt or a resumed
    /// remainder, memoised in the runner (a hit is a shared handle) —
    /// and how long it holds its partition.
    fn next_run(&self, idx: usize) -> NextRun {
        let job = &self.jobs[idx];
        let prepared = job.admitted();
        let outcome = match job.resume_boundary {
            Some(b) => self.runner.resume(&job.spec, &prepared.plan, job.attempts, b),
            None => self.runner.run(&job.spec, &prepared.plan, job.attempts),
        };
        let dur = match &outcome {
            // A recovered attempt holds its partition for the clean
            // makespan plus the recovery-time charge.
            Ok(out) => out.duration(),
            // Heartbeat model: a fault is detected when the job blows
            // its fault-free deadline, so the partition is held that
            // long either way.
            Err(_) => prepared.clean.report.elapsed,
        };
        NextRun { outcome, dur }
    }

    fn schedule_pass(&mut self) {
        loop {
            self.sort_queue();
            let Some(&head) = self.queue.first() else {
                return;
            };
            let head_shape = self.jobs[head].shape();
            let head_tenant = self.jobs[head].spec.tenant.clone();
            let head_cells = head_shape.cols * head_shape.rows;
            if self.quota_allows(&head_tenant, head_cells) {
                if let Some(fit) = self.map.find_fit(head_shape) {
                    let run = self.next_run(head);
                    self.queue.remove(0);
                    self.place(head, fit, run);
                    continue;
                }
                // Space-blocked: a strictly lower-priority running job
                // can be preempted at its next fence boundary; the
                // head then waits for the vacate event.
                if self.preemptive && self.order_preemption(head) {
                    return;
                }
            }
            if self.policy == Policy::Fcfs {
                return;
            }
            // Head is blocked (by space or by its tenant's quota):
            // compute its reservation, then let smaller jobs slide
            // past if they provably cannot delay it.
            let Some((t_res, rect)) = self.reservation(head_shape, &head_tenant, head_cells) else {
                // Machine cannot host the head even empty (a drain
                // landed since admission) — the sweep fails it.
                self.sweep_infeasible_queue();
                if self.queue.contains(&head) {
                    return; // the head survived the sweep: nothing to do now
                }
                continue;
            };
            let head_quota = self.quota(&head_tenant);
            let slide = (1..self.queue.len()).find_map(|qi| {
                let idx = self.queue[qi];
                let shape = self.jobs[idx].shape();
                let tenant = &self.jobs[idx].spec.tenant;
                if !self.quota_allows(tenant, shape.cols * shape.rows) {
                    return None;
                }
                let (x, y, s) = self.map.find_fit(shape)?;
                let cand = Partition { x, y, shape: s, nodes: Vec::new() };
                let run = self.next_run(idx);
                let fits_in_time = self.now + run.dur <= t_res;
                // A same-tenant slide that outlives the reservation
                // would hold quota the head may need at `t_res`, so it
                // must finish in time when the head's tenant is
                // quota-capped.
                let avoids_rect =
                    !cand.overlaps(&rect) && (*tenant != head_tenant || head_quota.is_none());
                (fits_in_time || avoids_rect).then_some((qi, (x, y, s), run))
            });
            let Some((qi, fit, run)) = slide else { return };
            let idx = self.queue.remove(qi);
            self.place(idx, fit, run);
        }
    }

    /// Order the best preemption for `head`, if one exists: the victim
    /// is the running job with the lowest priority (strictly below the
    /// head's), breaking ties toward the latest start then the highest
    /// index. Returns true when an order was placed.
    fn order_preemption(&mut self, head: usize) -> bool {
        let head_prio = self.jobs[head].spec.priority;
        let victim = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.stop.is_none() && self.jobs[r.job].spec.priority < head_prio)
            .filter_map(|(i, r)| r.next_boundary(self.now).map(|b| (i, r, b)))
            .min_by(|(_, a, _), (_, b, _)| {
                let pa = self.jobs[a.job].spec.priority;
                let pb = self.jobs[b.job].spec.priority;
                pa.cmp(&pb).then(b.start.total_cmp(&a.start)).then(b.job.cmp(&a.job))
            })
            .map(|(i, _, b)| (i, b));
        let Some((i, (bt, boundary))) = victim else {
            return false;
        };
        let r = &mut self.running[i];
        r.stop = Some(Stop { t: bt, boundary, cancel: false });
        let name = self.jobs[r.job].spec.name.clone();
        let node0 = r.part.nodes.first().copied().unwrap_or(0);
        self.tracer.push(
            Lane::Rank(node0),
            self.now,
            self.now,
            EventKind::Preempt { job: name.clone() },
        );
        self.ops.push(format!(
            "preempt {name} t={} boundary={boundary} vacate={}",
            tbits(self.now),
            tbits(bt)
        ));
        true
    }

    /// The head-of-queue reservation: simulate the running partitions
    /// freeing in vacate order (quota included) and return the first
    /// time a `shape` partition both fits and is within `tenant`'s
    /// quota, plus where. `None` if it cannot fit even on the drained
    /// empty machine.
    fn reservation(&self, shape: Mesh, tenant: &str, cells: usize) -> Option<(f64, Partition)> {
        let mut ghost = self.map.clone();
        let mut ends: Vec<(f64, usize)> =
            self.running.iter().enumerate().map(|(i, r)| (r.vacate_t(), i)).collect();
        ends.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let quota = self.quota(tenant);
        let mut held = self.held_cells(tenant);
        for (end, i) in ends {
            ghost.free(&self.running[i].part);
            if self.jobs[self.running[i].job].spec.tenant == tenant {
                held = held.saturating_sub(self.running[i].part.nodes.len());
            }
            if quota.is_some_and(|q| held + cells > q) {
                continue;
            }
            if let Some((x, y, s)) = ghost.find_fit(shape) {
                return Some((end, Partition { x, y, shape: s, nodes: Vec::new() }));
            }
        }
        None
    }

    /// Start `idx` (already off the queue) on the placement `find_fit`
    /// returned, for the run [`Scheduler::next_run`] computed.
    fn place(&mut self, idx: usize, (x, y, shape): (usize, usize, Mesh), run: NextRun) {
        let part = self.map.alloc(x, y, shape);
        let job = &mut self.jobs[idx];
        job.queue_wait += self.now - job.enqueued_at;
        job.first_start.get_or_insert(self.now);
        let resumed_from = job.resume_boundary.unwrap_or(0);
        let next = job.attempts;
        // A resumed remainder continues the attempt it was preempted
        // from; only a fresh start opens a new one.
        let attempt = if resumed_from == 0 {
            job.attempts += 1;
            next
        } else {
            next.saturating_sub(1)
        };
        self.ops.push(format!(
            "place {} attempt={next} t={} part={},{},{}x{} resume={}",
            job.spec.name,
            tbits(self.now),
            part.x,
            part.y,
            part.shape.cols,
            part.shape.rows,
            resumed_from,
        ));
        self.running.push(Running {
            job: idx,
            part,
            start: self.now,
            end: self.now + run.dur,
            attempt,
            outcome: run.outcome,
            resumed_from,
            stop: None,
        });
        self.peak_concurrent = self.peak_concurrent.max(self.running.len());
    }

    fn fail_stuck_queue(&mut self) {
        // Everything still queued on an idle machine is unplaceable
        // (admission guarantees a fit on the pristine empty machine,
        // so only drains can get us here). Sweeping may unblock an
        // FCFS queue whose *head* was the stranded job.
        self.sweep_infeasible_queue();
        self.schedule_pass();
        if self.running.is_empty() {
            debug_assert!(self.queue.is_empty(), "feasible job stuck on an idle machine");
            for idx in std::mem::take(&mut self.queue) {
                let e = VpceError::Internal {
                    msg: format!("job '{}' stuck on an idle machine", self.jobs[idx].spec.name),
                };
                self.fail_queued(idx, (e.kind().into(), e.to_string()));
            }
        }
    }

    /// The report of everything settled so far (call after
    /// [`Scheduler::drain`]); takes the attempt log with it.
    pub fn report(&mut self) -> BatchReport {
        self.admit_pending();
        let horizon = self.jobs.iter().filter_map(|j| j.end).max_by(f64::total_cmp).unwrap_or(0.0);
        let full = self.runner.mode() == ExecMode::Full;
        let records: Vec<JobRecord> = self
            .jobs
            .iter()
            .map(|j| {
                let makespan = j.end.map(|e| e - j.spec.arrival);
                let report = j.finished.as_ref().map(|out| &out.report);
                let recovery_s = j
                    .finished
                    .as_ref()
                    .and_then(|out| out.recovery.as_ref())
                    .map_or(0.0, |l| l.recovery_total());
                JobRecord {
                    name: j.spec.name.clone(),
                    tenant: j.spec.tenant.clone(),
                    ranks: j.spec.ranks,
                    shape: j.placed.as_ref().map_or_else(|| j.shape(), |p| p.shape),
                    status: j.status.unwrap_or(JobStatus::Failed),
                    arrival: j.spec.arrival,
                    start: j.first_start,
                    end: j.end,
                    queue_wait: j.queue_wait,
                    nodes: j.placed.as_ref().map(|p| p.nodes.clone()).unwrap_or_default(),
                    attempts: j.attempts,
                    requeues: j.attempts.saturating_sub(1),
                    preemptions: j.preemptions,
                    identical: match (report, &j.prepared) {
                        (Some(rep), Some(Ok(p))) if full => {
                            Some(spmd_rt::same_bits(&rep.arrays, &p.clean.report.arrays))
                        }
                        _ => None,
                    },
                    error: j.error.clone(),
                    missed_deadline: match (j.spec.deadline, makespan) {
                        (Some(d), Some(m)) => m > d,
                        _ => false,
                    },
                    breakdown: report.and_then(|rep| rep.trace.as_ref()).map(|t| {
                        t.critical.breakdown.with_recovery(recovery_s).with_queue_wait(j.queue_wait)
                    }),
                    net_messages: report.map_or(0, |r| r.net.p2p_messages),
                    net_bytes: report.map_or(0, |r| r.net.p2p_bytes),
                }
            })
            .collect();
        let utilization =
            if horizon > 0.0 { self.busy_cell_s / (self.nodes as f64 * horizon) } else { 0.0 };
        BatchReport {
            nodes: self.nodes,
            mesh: self.map.mesh(),
            policy: self.policy,
            seed: self.seed,
            records,
            peak_concurrent: self.peak_concurrent,
            drained: self.map.drained(),
            horizon,
            utilization,
            tenant_usage: self.usage.iter().map(|(t, u)| (t.clone(), *u)).collect(),
            trace_json: self.tracer.to_chrome_json(),
            attempts: std::mem::take(&mut self.attempts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSource;
    use vpce_faults::FaultSpec;

    fn no_loader() -> impl Fn(&str) -> Result<String, String> {
        |p: &str| Err(format!("no loader for `{p}`"))
    }

    fn mm(name: &str, ranks: usize) -> JobSpec {
        let mut j = JobSpec::new(name, JobSource::Workload("mm".into()), ranks);
        j.params.push(("N".into(), 8));
        j
    }

    fn crashy(name: &str, ranks: usize, faults: &str, retries: u32) -> JobSpec {
        let mut j = mm(name, ranks);
        j.faults = FaultSpec::parse(faults).unwrap();
        j.retries = retries;
        j
    }

    fn tenant(name: &str, quota: Option<usize>) -> TenantSpec {
        TenantSpec { name: name.into(), share: 1.0, quota }
    }

    /// The machine both front doors configure, one knob per argument.
    fn machine<'r>(
        runner: &'r Runner<'r>,
        nodes: usize,
        policy: Policy,
        preemptive: bool,
    ) -> Scheduler<'r> {
        let mut s = Scheduler::new(runner, preemptive);
        s.set_nodes(nodes).unwrap();
        s.set_policy(policy);
        s.set_seed(1);
        s
    }

    /// Submit everything, drain, report — with the derived ops.
    fn play(mut s: Scheduler<'_>, jobs: Vec<JobSpec>) -> (BatchReport, Vec<String>) {
        for job in jobs {
            s.submit(job).unwrap();
        }
        s.drain();
        let ops = s.take_ops();
        (s.report(), ops)
    }

    /// The batch front door's machine: never preempts.
    fn batch(jobs: Vec<JobSpec>, nodes: usize, policy: Policy) -> BatchReport {
        let runner = Runner::new(ExecMode::Full);
        play(machine(&runner, nodes, policy, false), jobs).0
    }

    fn record<'a>(rep: &'a BatchReport, name: &str) -> &'a JobRecord {
        rep.records.iter().find(|r| r.name == name).unwrap()
    }

    #[test]
    fn serial_batch_completes_in_arrival_order() {
        let rep = batch(vec![mm("a", 2), mm("b", 2)], 2, Policy::Fcfs);
        assert_eq!(rep.done(), 2);
        let a = &rep.records[0];
        let b = &rep.records[1];
        assert_eq!(a.queue_wait, 0.0);
        assert!(b.queue_wait > 0.0, "one 2-node machine serialises the jobs");
        assert_eq!(b.start, a.end, "b starts the instant a frees the mesh");
        assert_eq!(a.identical, Some(true));
        assert_eq!(rep.peak_concurrent, 1);
        assert_eq!(rep.exit_code(), 0);
    }

    #[test]
    fn independent_jobs_gang_schedule_concurrently() {
        let rep = batch((0..8).map(|i| mm(&format!("j{i}"), 2)).collect(), 16, Policy::Backfill);
        assert_eq!(rep.done(), 8);
        assert_eq!(rep.peak_concurrent, 8, "eight 2x1 partitions tile a 4x4 mesh");
        for r in &rep.records {
            assert_eq!(r.queue_wait, 0.0, "{}", r.name);
        }
        // Safety: no two time-overlapping attempts share a node.
        for (i, a) in rep.attempts.iter().enumerate() {
            for b in &rep.attempts[i + 1..] {
                if a.start < b.end && b.start < a.end {
                    assert!(!a.partition.overlaps(&b.partition), "{} and {} overlap", a.job, b.job);
                }
            }
        }
    }

    #[test]
    fn backfill_lets_narrow_jobs_slide_without_starving_the_wide_one() {
        // Two 2-rank jobs hold half of a 2x2 machine; a 4-rank job is
        // head of queue (higher priority) and must still run.
        let mut wide = mm("wide", 4);
        wide.priority = 5;
        wide.arrival = 1e-6;
        let mut late = mm("late", 2);
        late.arrival = 2e-6;
        let rep = batch(vec![mm("first", 2), wide, late], 4, Policy::Backfill);
        assert_eq!(
            rep.done(),
            3,
            "{:?}",
            rep.records.iter().map(|r| (&r.name, r.status.name())).collect::<Vec<_>>()
        );
        assert_eq!(record(&rep, "wide").status, JobStatus::Done);
    }

    #[test]
    fn oversized_and_broken_jobs_are_rejected_not_run() {
        let broken = JobSpec::new("syn", JobSource::Inline("PROGRAM T\nX = \nEND\n".into()), 1);
        let rep = batch(vec![mm("huge", 32), broken, mm("ok", 2)], 16, Policy::Backfill);
        assert_eq!(rep.rejected(), 2);
        assert_eq!(rep.done(), 1);
        assert_eq!(rep.exit_code(), 4, "admission failure dominates");
        assert!(rep.attempts.iter().all(|a| a.job == "ok"));
        assert_eq!(record(&rep, "huge").error.as_ref().unwrap().0, "admission-infeasible");
    }

    #[test]
    fn same_seed_same_report_bytes() {
        let jobs = || (0..4).map(|i| mm(&format!("j{i}"), 2)).collect::<Vec<_>>();
        let a = batch(jobs(), 4, Policy::Backfill);
        let b = batch(jobs(), 4, Policy::Backfill);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_human(), b.render_human());
        assert_eq!(a.trace_json, b.trace_json, "cluster timeline is deterministic too");
    }

    #[test]
    fn crashed_job_drains_its_node_and_requeues_byte_identically() {
        // A crash-prone job on a machine with room to requeue
        // elsewhere. Find a seed whose first attempt crashes and a
        // later attempt survives; determinism makes the scan stable.
        let mut found = false;
        for seed in 0..64u64 {
            let risky = crashy("risky", 2, &format!("crashy,seed={seed}"), 4);
            let rep = batch(vec![risky, mm("bystander", 2)], 16, Policy::Backfill);
            let r = record(&rep, "risky");
            if r.status == JobStatus::Done && r.requeues > 0 {
                assert_eq!(r.identical, Some(true), "healed run must match the dry run");
                assert!(!rep.drained.is_empty(), "the crashed rank's node is drained");
                let drained = &rep.drained;
                let retry = rep
                    .attempts
                    .iter()
                    .find(|a| a.job == "risky" && a.ok)
                    .expect("surviving attempt logged");
                assert!(
                    retry.partition.nodes.iter().all(|n| !drained.contains(n)),
                    "requeued placement avoids the drained node"
                );
                assert_eq!(rep.exit_code(), 0, "a survived batch exits clean");
                found = true;
                break;
            }
        }
        assert!(found, "no seed in 0..64 produced crash-then-survive");
    }

    #[test]
    fn probation_reintegrates_the_crashed_node_after_clean_completions() {
        // The permanent-drain run leaves the crashed node out of
        // service at batch end; the probation run heals it once enough
        // clean completions tick by.
        let mut found = false;
        for seed in 0..64u64 {
            let mk =
                || vec![crashy("risky", 2, &format!("crashy,seed={seed}"), 4), mm("bystander", 2)];
            let permanent = batch(mk(), 16, Policy::Backfill);
            let r = record(&permanent, "risky");
            if !(r.status == JobStatus::Done && r.requeues > 0) {
                continue;
            }
            assert!(!permanent.drained.is_empty(), "permanent drain persists");
            let runner = Runner::new(ExecMode::Full);
            let mut s = machine(&runner, 16, Policy::Backfill, false);
            s.set_probation(Some(1));
            let (rep, _) = play(s, mk());
            let r = record(&rep, "risky");
            assert_eq!(r.status, JobStatus::Done);
            assert_eq!(r.identical, Some(true), "healing never changes results");
            assert!(
                rep.drained.is_empty(),
                "a clean completion reintegrated the node: {:?}",
                rep.drained
            );
            found = true;
            break;
        }
        assert!(found, "no seed in 0..64 produced crash-then-survive");
    }

    #[test]
    fn recover_armed_jobs_absorb_crashes_without_requeue_or_drain() {
        // The same crash schedule that forces a requeue (and drains a
        // node) without `recover=` completes in-run with it: one
        // attempt, no drain, byte-identical arrays, the rollback
        // charge in the breakdown's recovery component, and an audit
        // op ahead of the completion for the service to journal.
        let mut found = false;
        for seed in 0..64u64 {
            let mut risky = crashy("risky", 4, &format!("crash=0.5,seed={seed}"), 0);
            let plain_rep = batch(vec![risky.clone()], 16, Policy::Backfill);
            if plain_rep.records[0].status != JobStatus::Failed {
                continue; // this seed never crashes; scan on
            }
            risky.recover = Some(vpce_recover::RecoverSpec::default());
            let runner = Runner::new(ExecMode::Full);
            let (rep, ops) = play(
                machine(&runner, 16, Policy::Backfill, false),
                vec![risky, mm("bystander", 2)],
            );
            let r = record(&rep, "risky");
            if r.status != JobStatus::Done {
                continue; // unsurvivable schedule (buddies all died)
            }
            assert_eq!(r.attempts, 1, "recovery absorbs the crash in-run");
            assert_eq!(r.requeues, 0);
            assert_eq!(r.identical, Some(true), "recovered arrays match the dry run");
            assert!(rep.drained.is_empty(), "failover respawns; no node is drained");
            let b = r.breakdown.as_ref().expect("done jobs carry a breakdown");
            assert!(b.recovery > 0.0, "rollback charge lands in the recovery slice");
            assert!(
                rep.attempts.iter().all(|a| a.ok),
                "no failed attempt is ever logged with recovery armed"
            );
            assert_eq!(rep.exit_code(), 0);
            let audit = ops.iter().position(|o| o.starts_with("recover risky"));
            let done = ops.iter().position(|o| o.starts_with("complete risky"));
            assert!(audit.is_some_and(|a| ops[a].contains("rollbacks=")), "{ops:?}");
            assert!(audit < done, "the audit op precedes the completion: {ops:?}");
            found = true;
            break;
        }
        assert!(found, "no seed in 0..64 produced an absorbable crash");
    }

    #[test]
    fn exhausted_retries_fail_typed() {
        // crash=1.0 kills every attempt.
        let doomed = crashy("doomed", 2, "crashy,crash=1.0,seed=3", 1);
        let rep = batch(vec![doomed], 16, Policy::Backfill);
        let r = &rep.records[0];
        assert_eq!(r.status, JobStatus::Failed);
        assert_eq!(r.attempts, 2, "initial + one requeue");
        assert_eq!(r.error.as_ref().unwrap().0, "rank-crash");
        assert_eq!(rep.exit_code(), 3);
        assert_eq!(rep.attempts.len(), 2);
    }

    #[test]
    fn tenant_quota_caps_concurrency() {
        let jobs = (0..4)
            .map(|i| {
                let mut j = mm(&format!("a{i}"), 2);
                j.tenant = "acme".into();
                j
            })
            .collect();
        let runner = Runner::new(ExecMode::Full);
        let mut s = machine(&runner, 16, Policy::Backfill, false);
        s.declare_tenant(tenant("acme", Some(4)));
        let (rep, _) = play(s, jobs);
        assert_eq!(rep.done(), 4);
        assert_eq!(
            rep.peak_concurrent, 2,
            "quota of 4 cells admits two 2-cell partitions at a time"
        );
        assert_eq!(rep.tenant_usage.len(), 1);
        assert!(rep.tenant_usage[0].1 > 0.0);
        assert!(rep.to_json().contains("\"tenant\": \"acme\""));
    }

    #[test]
    fn job_wider_than_its_quota_is_rejected_typed() {
        let mut j = mm("big", 4);
        j.tenant = "tiny".into();
        let runner = Runner::new(ExecMode::Full);
        let mut s = machine(&runner, 16, Policy::Backfill, false);
        s.declare_tenant(tenant("tiny", Some(2)));
        let (rep, _) = play(s, vec![j]);
        assert_eq!(rep.rejected(), 1);
        let r = &rep.records[0];
        assert!(
            r.error.as_ref().unwrap().1.contains("exceeds tenant `tiny` quota"),
            "{:?}",
            r.error
        );
    }

    #[test]
    fn fair_share_interleaves_tenants_at_equal_priority() {
        // One 2-node machine serialises everything. Submission order
        // is a0, a1, b0; once a0 has run and is charged to tenant a,
        // tenant b's ratio is lower, so b0 jumps ahead of a1.
        let mk = |name: &str, tenant: &str| {
            let mut j = mm(name, 2);
            j.tenant = tenant.into();
            j
        };
        let rep = batch(vec![mk("a0", "a"), mk("a1", "a"), mk("b0", "b")], 2, Policy::Fcfs);
        assert_eq!(rep.done(), 3);
        let order: Vec<&str> = rep.attempts.iter().map(|a| a.job.as_str()).collect();
        assert_eq!(order, vec!["a0", "b0", "a1"], "fair-share rotates tenants");
        assert_eq!(rep.tenant_usage.len(), 2);
        // Charged at vacate for the span actually held: the ledger
        // sums exactly the logged attempt intervals.
        for (t, usage) in &rep.tenant_usage {
            let held: f64 = rep
                .attempts
                .iter()
                .filter(|a| a.job.starts_with(t.as_str()))
                .map(|a| a.partition.nodes.len() as f64 * (a.end - a.start))
                .sum();
            assert_eq!(*usage, held, "tenant {t}");
        }
    }

    #[test]
    fn priority_preempts_at_a_boundary_and_resumes_byte_identically() {
        // The low job owns the whole 2-node machine; the high job
        // arrives mid-run and, on a preemptive machine, bumps it.
        let jobs = || {
            let mut low = mm("low", 2);
            low.params[0].1 = 16;
            let mut high = mm("high", 2);
            high.priority = 5;
            high.arrival = 2e-5;
            vec![low, high]
        };
        let runner = Runner::new(ExecMode::Full);
        let (rep, ops) = play(machine(&runner, 2, Policy::Backfill, true), jobs());
        let (low, high) = (record(&rep, "low"), record(&rep, "high"));
        assert_eq!(low.status, JobStatus::Done);
        assert_eq!(high.status, JobStatus::Done);
        assert_eq!(low.preemptions, 1, "low was bumped exactly once");
        assert_eq!(high.preemptions, 0);
        assert_eq!(
            low.identical,
            Some(true),
            "preempt+resume reproduced the uninterrupted arrays byte-for-byte"
        );
        assert!(high.end.unwrap() < low.end.unwrap(), "high finished first");
        assert!(ops.iter().any(|o| o.starts_with("preempt low")), "{ops:?}");
        assert!(ops.iter().any(|o| o.starts_with("checkpoint low")), "{ops:?}");
        assert!(rep.trace_json.contains("\"checkpoint low@"), "{}", &rep.trace_json[..200]);
        // The one caller-dependent bit: the batch machine never
        // preempts and marks nothing but phase spans on its timeline.
        let (rep, ops) = play(machine(&runner, 2, Policy::Backfill, false), jobs());
        let (low, high) = (record(&rep, "low"), record(&rep, "high"));
        assert_eq!((low.preemptions, low.status), (0, JobStatus::Done));
        assert!(low.end.unwrap() <= high.start.unwrap(), "high waited for low");
        assert!(!ops.iter().any(|o| o.starts_with("preempt")), "{ops:?}");
        assert!(!rep.trace_json.contains("submit "), "{}", rep.trace_json);
    }

    /// A batch through [`run_batch_on`] with admission on `workers`
    /// threads: its text, JSON and cluster timeline.
    fn batch_bytes(jobfile: &str, workers: usize) -> (String, String, String) {
        let spec = BatchSpec::parse(jobfile).unwrap();
        let runner = Runner::new(ExecMode::Full).with_workers(workers);
        let rep = run_batch_on(&spec, &BatchOptions::default(), &runner).unwrap();
        (rep.render_human(), rep.to_json(), rep.trace_json)
    }

    /// 81 fault-free jobs of two tenants: each program at each rank
    /// count and size three times, in a scrambled order.
    fn two_tenant_storm() -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "nodes=16\nseed=5\ntenant name=acme share=2 quota=8\ntenant name=beta share=1\n",
        );
        for i in 0..81 {
            let (program, ranks, size) =
                (["mm", "swim", "cfft"][i % 3], [1, 2, 4][i / 3 % 3], i / 9 % 3);
            let param = match program {
                "cfft" => format!("param:M={}", 3 + size),
                _ => format!("param:N={}", 8 << size),
            };
            let tenant = ["acme", "beta"][i * 7 % 5 % 2];
            let arrive = (i * 37 % 81) as f64 * 2e-5;
            let _ = writeln!(
                out,
                "job name=j{i} tenant={tenant} workload={program} ranks={ranks} {param} \
                 arrive={arrive:.9}"
            );
        }
        out
    }

    #[test]
    fn one_or_two_admission_workers_give_the_same_bytes() {
        let fixture = |name: &str| {
            let path = format!("{}/../../examples/jobs/{name}.jobs", env!("CARGO_MANIFEST_DIR"));
            std::fs::read_to_string(path).unwrap()
        };
        let jobfiles = ["storm", "tenants", "drain"].map(fixture);
        for jobfile in jobfiles.iter().cloned().chain([two_tenant_storm()]) {
            let one = batch_bytes(&jobfile, 1);
            assert_eq!(one, batch_bytes(&jobfile, 2), "{}", one.0);
        }
    }

    #[test]
    fn refused_jobs_name_themselves_under_parallel_admission() {
        const MOD_ZERO: &str = "PROGRAM T\nPARAMETER (N = 16)\nREAL A(N)\nINTEGER I, Z\nZ = 0\n\
                                DO I = 1, N\nA(I) = REAL(MOD(I, Z))\nENDDO\nEND\n";
        // One store past the end of `A`: the advisor's analytic pricing
        // run of a job without `grain=` puts past its window's end.
        const PAST_THE_END: &str = "PROGRAM T\nPARAMETER (N = 16)\nREAL A(N)\nINTEGER I\n\
                                    DO I = 1, N + 1\nA(I) = 1.0\nENDDO\nEND\n";
        let job = |name: &str, text: &str| JobSpec::new(name, JobSource::Inline(text.into()), 2);
        // The second copy of each refused program shares its work with
        // the first, so its refusal comes from the memo.
        let jobs = vec![
            job("syn1", "PROGRAM T\nX = \nEND\n"),
            job("div1", MOD_ZERO),
            job("oob1", PAST_THE_END),
            mm("ok", 2),
            job("syn2", "PROGRAM T\nX = \nEND\n"),
            job("div2", MOD_ZERO),
            job("oob2", PAST_THE_END),
        ];
        for workers in [1, 2] {
            let runner = Runner::new(ExecMode::Full).with_workers(workers);
            let (rep, ops) = play(machine(&runner, 16, Policy::Backfill, false), jobs.clone());
            assert_eq!((rep.done(), rep.rejected()), (1, 6), "{workers} workers");
            let (parse, dry) = ("front-end: ", "fault-free dry run: ");
            let price = "advisor pricing run: ";
            let stages = [
                ("syn1", parse),
                ("syn2", parse),
                ("div1", dry),
                ("div2", dry),
                ("oob1", price),
                ("oob2", price),
            ];
            for (name, stage) in stages {
                let (kind, text) = record(&rep, name).error.clone().unwrap();
                assert_eq!(kind, "admission-rejected", "{name}");
                let own = format!("job '{name}': {stage}");
                assert!(text.contains(&own), "{workers} workers: {text}");
                let verdict = format!("admit {name} ");
                let refused = |o: &&String| o.ends_with("reject admission-rejected");
                assert!(ops.iter().filter(refused).any(|o| o.starts_with(&verdict)), "{ops:?}");
            }
            assert!(record(&rep, "div2").error.as_ref().unwrap().1.contains("division by zero"));
            let oob2 = &record(&rep, "oob2").error.as_ref().unwrap().1;
            assert!(oob2.contains("RMA past end of window"), "{oob2}");
        }
    }

    #[test]
    fn run_batch_resolves_headers_and_seeds() {
        let spec = BatchSpec::parse(
            "nodes=4\npolicy=fcfs\nseed=9\njob name=a workload=mm ranks=2 param:N=8\n",
        )
        .unwrap();
        let rep = run_batch(&spec, &BatchOptions::default(), &no_loader()).unwrap();
        assert_eq!(rep.nodes, 4, "jobfile nodes= wins over the option");
        assert_eq!(rep.policy, Policy::Fcfs);
        assert_eq!(rep.seed, 9);
        let over = BatchOptions { seed: Some(2), ..Default::default() };
        let rep = run_batch(&spec, &over, &no_loader()).unwrap();
        assert_eq!(rep.seed, 2, "--sched-seed wins over the jobfile");
        let empty = BatchSpec::parse("nodes=4\n").unwrap();
        assert!(run_batch(&empty, &BatchOptions::default(), &no_loader()).is_err());
        let none = BatchOptions { nodes: 0, ..Default::default() };
        let headless = BatchSpec::parse("job name=a workload=mm ranks=1 param:N=8\n").unwrap();
        assert!(run_batch(&headless, &none, &no_loader()).is_err(), "a machine has a node");
    }
}
