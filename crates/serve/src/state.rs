//! The service's replayable inputs.
//!
//! `vpced` drives the one gang scheduler (`vpce_sched::Scheduler`,
//! built preemptive) and adds no scheduling of its own. What is the
//! service's own is how state *enters*: [`apply`] takes the canonical
//! lines the journal's `I` records carry — jobfile grammar (`job`,
//! `storm`, `tenant`, `nodes=`, `policy=`, `seed=`, `machine=`) plus
//! the timed verb `cancel name=<job> at=<t>` — checks the
//! header-ordering rules, and turns each into scheduler calls. Every
//! refusal is typed and a refused line is never journalled, so
//! replaying the accepted ones reconstructs the same scheduler bit
//! for bit.

use vpce_diag::settings;
use vpce_sched::{BatchSpec, Scheduler};

use crate::codes::{ServeCode, ServeError};

fn bad(detail: impl Into<String>) -> ServeError {
    ServeError::new(ServeCode::BadCommand, detail.into())
}

/// Apply one canonical input line to `sched`. `machine` is the
/// session-level `machine=` header (a built-in description name): it
/// is stamped onto every submitted job that carries none of its own,
/// so a job's record — the runner's cache key — names the machine it
/// runs on and replay needs no state beyond the lines themselves.
pub(crate) fn apply(
    sched: &mut Scheduler<'_>,
    machine: &mut Option<String>,
    line: &str,
) -> Result<(), ServeError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix("cancel ") {
        return apply_cancel(sched, rest);
    }
    let spec = BatchSpec::parse(line).map_err(|e| bad(e.to_string()))?;
    if let Some(n) = spec.nodes {
        sched.set_nodes(n).map_err(bad)?;
    }
    if let Some(p) = spec.policy {
        sched.set_policy(p);
    }
    if let Some(s) = spec.seed {
        if !sched.is_empty() {
            return Err(bad("seed= must precede the first submission"));
        }
        sched.set_seed(s);
    }
    if spec.probation.is_some() {
        return Err(bad(
            "probation= is a batch-scheduler knob; vpced drains crashed nodes for good",
        ));
    }
    if let Some(m) = spec.machine {
        if !sched.is_empty() {
            return Err(bad("machine= must precede the first submission"));
        }
        *machine = Some(m);
    }
    for t in spec.tenants {
        sched.declare_tenant(t);
    }
    let seed = sched.seed();
    let storms = spec.storms.iter().flat_map(|storm| storm.expand(seed));
    for mut job in spec.jobs.into_iter().chain(storms) {
        if let Some(m) = machine {
            job.machine.get_or_insert_with(|| m.clone());
        }
        sched.submit(job).map_err(|e| ServeError::new(ServeCode::DuplicateSubmit, e))?;
    }
    Ok(())
}

/// `cancel name=<job> at=<t>`: one record through the settings
/// tokenizer (a repeated key is refused), `t` through its seconds
/// parser (finite, non-negative), so a hostile `at=NaN` is refused here
/// instead of firing at the first step.
fn apply_cancel(sched: &mut Scheduler<'_>, args: &str) -> Result<(), ServeError> {
    let usage = |detail: String| bad(format!("cancel takes name=<job> at=<t>: {detail}"));
    let (mut name, mut at) = (None, None);
    for (k, v) in settings::pairs(args.split_whitespace()).map_err(|e| usage(e.to_string()))? {
        match k {
            "name" => name = Some(v),
            "at" => {
                let t = settings::seconds(v).map_err(|e| bad(format!("bad cancel time: `at` {e}")))?;
                at = Some(t);
            }
            other => return Err(usage(format!("unknown key `{other}`"))),
        }
    }
    let name = name.ok_or_else(|| bad("cancel needs name="))?;
    let at = at.ok_or_else(|| bad("cancel needs at="))?;
    sched.cancel_at(name, at).map_err(|e| ServeError::new(ServeCode::UnknownJob, e))
}

/// One-line status for a job (client `status` verb).
pub(crate) fn status_line(sched: &Scheduler<'_>, name: &str) -> Result<String, ServeError> {
    let j = sched
        .job(name)
        .ok_or_else(|| ServeError::new(ServeCode::UnknownJob, format!("no job `{name}`")))?;
    Ok(format!(
        "{name} {} tenant={} attempts={} preemptions={}",
        j.state, j.tenant, j.attempts, j.preemptions
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmd_rt::ExecMode;
    use vpce_sched::{JobStatus, Runner};

    /// What a daemon holds besides its journal: the preemptive
    /// scheduler and the session's `machine=` header.
    struct Served<'r> {
        sched: Scheduler<'r>,
        machine: Option<String>,
    }

    impl<'r> Served<'r> {
        fn new(r: &'r Runner<'r>, nodes: usize) -> Self {
            let mut s = Served { sched: Scheduler::new(r, true), machine: None };
            s.apply(&format!("nodes={nodes}")).unwrap();
            s
        }

        fn apply(&mut self, line: &str) -> Result<(), ServeError> {
            apply(&mut self.sched, &mut self.machine, line)
        }
    }

    #[test]
    fn submit_drain_report_roundtrip() {
        let r = Runner::new(ExecMode::Full);
        let mut s = Served::new(&r, 4);
        s.apply("job name=a workload=mm ranks=2 param:N=8").unwrap();
        s.apply("job name=b workload=mm ranks=2 param:N=8 arrive=1e-4").unwrap();
        assert_eq!(
            status_line(&s.sched, "b").unwrap(),
            "b pending tenant=- attempts=0 preemptions=0"
        );
        s.sched.drain();
        let rep = s.sched.report();
        assert_eq!(rep.done(), 2);
        assert_eq!(rep.exit_code(), 0);
        assert!(rep.records.iter().all(|j| j.identical == Some(true)));
        let ops = s.sched.take_ops();
        assert!(ops.iter().any(|o| o.starts_with("admit a")), "{ops:?}");
        assert!(ops.iter().any(|o| o.starts_with("place b")), "{ops:?}");
        assert!(ops.iter().any(|o| o.starts_with("complete b")), "{ops:?}");
        assert_eq!(status_line(&s.sched, "b").unwrap(), "b done tenant=- attempts=1 preemptions=0");
    }

    #[test]
    fn duplicate_and_unknown_names_are_typed() {
        let r = Runner::new(ExecMode::Full);
        let mut s = Served::new(&r, 4);
        s.apply("job name=a workload=mm ranks=2 param:N=8").unwrap();
        let e = s.apply("job name=a workload=mm ranks=2 param:N=8").unwrap_err();
        assert_eq!(e.code, ServeCode::DuplicateSubmit);
        let e = s.apply("cancel name=ghost at=0").unwrap_err();
        assert_eq!(e.code, ServeCode::UnknownJob);
        assert_eq!(status_line(&s.sched, "ghost").unwrap_err().code, ServeCode::UnknownJob);
        let e = s.apply("launch name=a").unwrap_err();
        assert_eq!(e.code, ServeCode::BadCommand);
        let e = s.apply("probation=2").unwrap_err();
        assert_eq!(e.code, ServeCode::BadCommand, "probation= is batch-only");
        let e = s.apply("nodes=8").unwrap_err();
        assert_eq!(e.code, ServeCode::BadCommand, "nodes= after a submission");
        let r2 = Runner::new(ExecMode::Full);
        let e = Served::new(&r2, 4).apply("nodes=0").unwrap_err();
        assert_eq!(e.code, ServeCode::BadCommand, "an empty machine is refused, not a panic");
    }

    #[test]
    fn cancel_times_go_through_the_jobfile_validator() {
        let r = Runner::new(ExecMode::Full);
        let mut s = Served::new(&r, 2);
        s.apply("job name=a workload=mm ranks=2 param:N=8").unwrap();
        for hostile in ["NaN", "nan", "inf", "-inf", "+infinity", "-1", "-0.5", "soon", ""] {
            let e = s.apply(&format!("cancel name=a at={hostile}")).unwrap_err();
            assert_eq!(e.code, ServeCode::BadCommand, "at={hostile}");
            assert!(e.detail.contains("bad cancel time"), "at={hostile}: {e}");
        }
        // Nothing above was queued: `a` runs to completion until a
        // well-formed cancel lands.
        s.apply("cancel name=a at=1e-9").unwrap();
        s.sched.drain();
        let rep = s.sched.report();
        assert_eq!(rep.records[0].error.as_ref().unwrap().0, "cancelled");
        let ops = s.sched.take_ops();
        assert_eq!(ops.iter().filter(|o| o.starts_with("cancel a")).count(), 2, "{ops:?}");
    }

    #[test]
    fn machine_header_stamps_jobs_and_orders_like_nodes() {
        let r = Runner::new(ExecMode::Full);
        let mut s = Served::new(&r, 16);
        s.apply("machine=hypercube").unwrap();
        // The header is stamped onto jobs that name no machine — a
        // 3-rank job cannot lower through a hypercube — and a job's
        // own machine= beats it.
        s.apply("job name=a workload=mm ranks=3 param:N=8").unwrap();
        s.apply("job name=b workload=mm ranks=3 param:N=8 machine=torus").unwrap();
        // Header after a submission is refused, like nodes=/seed=.
        let e = s.apply("machine=crossbar").unwrap_err();
        assert_eq!(e.code, ServeCode::BadCommand);
        s.sched.drain();
        let rep = s.sched.report();
        assert_eq!(rep.records[0].status, JobStatus::Rejected);
        assert!(rep.records[0].error.as_ref().unwrap().1.contains("hypercube"));
        assert_eq!(rep.records[1].status, JobStatus::Done, "{:?}", rep.records[1].error);
    }

    #[test]
    fn cancel_hits_queued_and_running_jobs() {
        let r = Runner::new(ExecMode::Full);
        let mut s = Served::new(&r, 2);
        s.apply("job name=a workload=mm ranks=2 param:N=16").unwrap();
        s.apply("job name=b workload=mm ranks=2 param:N=8 arrive=1e-5").unwrap();
        s.apply("cancel name=b at=2e-5").unwrap(); // still queued behind a
        s.apply("cancel name=a at=3e-5").unwrap(); // running
        s.sched.drain();
        let rep = s.sched.report();
        for name in ["a", "b"] {
            let j = rep.records.iter().find(|j| j.name == name).unwrap();
            assert_eq!(j.status, JobStatus::Failed, "{name}");
            assert_eq!(j.error.as_ref().unwrap().0, "cancelled", "{name}");
        }
        let a = rep.records.iter().find(|j| j.name == "a").unwrap();
        assert!(a.end.unwrap() >= 3e-5, "a ran until its stop boundary");
    }

    #[test]
    fn replaying_the_same_inputs_reproduces_ops_report_and_trace() {
        let inputs = [
            "nodes=4",
            "seed=3",
            "tenant name=acme share=2 quota=2",
            "job name=a tenant=acme workload=mm ranks=2 param:N=8",
            "storm prefix=s count=2 workload=mm ranks=2 param:N=8 mean-gap=1e-4",
            "cancel name=s1 at=1e-6",
        ];
        let r = Runner::new(ExecMode::Full);
        let run = || {
            let mut s = Served::new(&r, 16);
            for line in inputs {
                s.apply(line).unwrap();
            }
            s.sched.drain();
            let ops = s.sched.take_ops();
            let rep = s.sched.report();
            (ops, rep.to_json(), rep.trace_json)
        };
        let (ops1, json1, trace1) = run();
        let (ops2, json2, trace2) = run();
        assert_eq!(ops1, ops2);
        assert_eq!(json1, json2);
        assert_eq!(trace1, trace2);
        assert!(!ops1.is_empty());
    }
}
