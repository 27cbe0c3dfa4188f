//! The two front doors agree, structurally.
//!
//! `vpcec --batch` (`vpce_sched::run_batch`) and `vpced` (a journalled
//! [`Daemon`]) drive one `vpce_sched::Scheduler`; the only thing the
//! service adds to a schedule is preemption. So for random jobfiles —
//! tenants, shares, quotas, storms, crashy jobs, `recover=` —
//!
//! 1. with **equal priorities** (nothing can be preempted) the batch
//!    report JSON equals the drained daemon's byte for byte, and the
//!    served timeline is the batch timeline plus the service's own
//!    `"cat":"service"` marks;
//! 2. with **mixed priorities** the two reports may differ only from
//!    the first preemption on: every job that settled before the first
//!    victim even started carries the same record through both doors,
//!    and a run in which nothing was preempted is byte-equal again.
//!
//! This is the test that stops the scheduler being forked a second
//! time: a charging rule, a tie-break or an admission screen that
//! lives behind only one door fails it. Failing seeds are pinned in
//! `crates/serve/testkit-regressions/`.

use spmd_rt::ExecMode;
use vpce_sched::{run_batch, BatchOptions, BatchReport, BatchSpec, JobStatus};
use vpce_serve::{script_lines, Daemon, MemStorage, Runner};
use vpce_testkit::prelude::*;

#[derive(Debug, Clone)]
enum Kind {
    Plain,
    /// Rank crashes, requeued up to three times (drains nodes).
    Crashy(u64),
    /// Rank crashes absorbed in-run by rollback recovery.
    Recover(u64),
}

#[derive(Debug, Clone)]
struct Job {
    ranks: usize,
    arrival: f64,
    tenant: Option<&'static str>,
    prio: i64,
    kind: Kind,
}

#[derive(Debug, Clone)]
struct Case {
    nodes: usize,
    policy: &'static str,
    seed: u64,
    /// acme's quota; beta is uncapped.
    quota: Option<usize>,
    shares: (u32, u32),
    jobs: Vec<Job>,
    /// `(count, ranks, tenant)` of an optional storm.
    storm: Option<(usize, usize, Option<&'static str>)>,
}

impl Case {
    /// The jobfile both doors read: headers, tenants, jobs, storms —
    /// the order `run_batch` materialises in, so submission indices
    /// line up with the daemon's line-by-line ingest.
    fn jobfile(&self, with_priorities: bool) -> String {
        let mut text =
            format!("nodes={}\npolicy={}\nseed={}\n", self.nodes, self.policy, self.seed);
        let quota = self.quota.map_or(String::new(), |q| format!(" quota={q}"));
        text += &format!("tenant name=acme share={}{quota}\n", self.shares.0);
        text += &format!("tenant name=beta share={}\n", self.shares.1);
        let tenant = |t: Option<&str>| t.map_or(String::new(), |t| format!(" tenant={t}"));
        for (i, j) in self.jobs.iter().enumerate() {
            text += &format!(
                "job name=j{i}{} workload=mm ranks={} param:N=8 grain=fine arrive={}",
                tenant(j.tenant),
                j.ranks,
                j.arrival
            );
            if with_priorities {
                text += &format!(" prio={}", j.prio);
            }
            match j.kind {
                Kind::Plain => {}
                Kind::Crashy(s) => text += &format!(" faults=crashy,seed={s} retries=3"),
                Kind::Recover(s) => text += &format!(" faults=crash=0.5,seed={s} recover=on"),
            }
            text.push('\n');
        }
        if let Some((count, ranks, t)) = self.storm {
            text += &format!(
                "storm prefix=s count={count}{} workload=mm ranks={ranks} param:N=8 \
                 grain=fine mean-gap=2e-5\n",
                tenant(t)
            );
        }
        text
    }
}

fn arb_tenant() -> Gen<Option<&'static str>> {
    elem_of(vec![None, Some("acme"), Some("beta")])
}

fn arb_job() -> Gen<Job> {
    let kind = weighted(vec![
        (5, just(Kind::Plain)),
        (2, u64_in(1, 1 << 40).map(Kind::Crashy)),
        (1, u64_in(1, 1 << 40).map(Kind::Recover)),
    ]);
    zip4(zip2(elem_of(vec![1usize, 2, 4]), f64_in(0.0, 3e-4)), arb_tenant(), i64_in(-2, 2), kind)
        .map(|((ranks, arrival), tenant, prio, kind)| Job { ranks, arrival, tenant, prio, kind })
}

fn arb_case() -> Gen<Case> {
    let machine =
        zip3(elem_of(vec![4usize, 8, 16]), elem_of(vec!["fcfs", "backfill"]), u64_in(0, 1 << 32));
    let tenants = zip3(elem_of(vec![None, Some(2usize), Some(4)]), u32_in(1, 3), u32_in(1, 3));
    let storm = weighted(vec![
        (1, just(None)),
        (2, zip3(usize_in(2, 5), elem_of(vec![1usize, 2]), arb_tenant()).map(Some)),
    ]);
    zip4(machine, tenants, vec_of(arb_job(), 3, 6), storm).map(
        |((nodes, policy, seed), (quota, a, b), jobs, storm)| Case {
            nodes,
            policy,
            seed,
            quota,
            shares: (a, b),
            jobs,
            storm,
        },
    )
}

fn through_batch(jobfile: &str) -> BatchReport {
    let spec = BatchSpec::parse(jobfile).expect("generated jobfiles parse");
    let loader = |p: &str| Err(format!("property jobs are self-contained: `{p}`"));
    run_batch(&spec, &BatchOptions::default(), &loader).expect("non-empty batch runs")
}

fn through_daemon(jobfile: &str) -> BatchReport {
    let runner = Runner::new(ExecMode::Full);
    let mut storage = MemStorage::default();
    let (mut daemon, _) = Daemon::open(&mut storage, &runner).expect("fresh journal opens");
    for line in script_lines(jobfile) {
        daemon.submit(&line).expect("generated lines are accepted");
    }
    daemon.drain().expect("a never-killed daemon drains");
    daemon.report().clone()
}

/// The timeline without the marks only the service makes.
fn without_service_marks(trace: &str) -> String {
    trace.lines().filter(|l| !l.contains("\"cat\":\"service\"")).map(|l| format!("{l}\n")).collect()
}

#[test]
fn equal_priorities_make_batch_and_served_reports_byte_equal() {
    Check::new("serve::equal_priorities_make_batch_and_served_reports_byte_equal").cases(24).run(
        &arb_case(),
        |case| {
            let jobfile = case.jobfile(false);
            let batch = through_batch(&jobfile);
            let served = through_daemon(&jobfile);
            prop_assert_eq!(batch.to_json(), served.to_json(), "reports differ for\n{jobfile}");
            prop_assert_eq!(
                without_service_marks(&batch.trace_json),
                without_service_marks(&served.trace_json),
                "timelines differ beyond the service's marks for\n{jobfile}"
            );
            prop_assert_eq!(batch.render_human(), served.render_human());
            Ok(())
        },
    );
}

#[test]
fn mixed_priorities_diverge_only_from_the_first_preemption_on() {
    Check::new("serve::mixed_priorities_diverge_only_from_the_first_preemption_on").cases(24).run(
        &arb_case(),
        |case| {
            let jobfile = case.jobfile(true);
            let batch = through_batch(&jobfile);
            let served = through_daemon(&jobfile);
            prop_assert!(batch.records.iter().all(|r| r.preemptions == 0), "batch never preempts");
            // The doors run in lockstep until the first preemption is
            // ordered, which is no earlier than its victim's start.
            let first_victim_start = served
                .records
                .iter()
                .filter(|r| r.preemptions > 0)
                .filter_map(|r| r.start)
                .min_by(f64::total_cmp);
            let Some(fork) = first_victim_start else {
                prop_assert_eq!(batch.to_json(), served.to_json(), "no preemption in\n{jobfile}");
                return Ok(());
            };
            for (b, s) in batch.records.iter().zip(&served.records) {
                let settled_before_fork = match s.end {
                    Some(end) => end <= fork,
                    None => s.status == JobStatus::Rejected && s.arrival <= fork,
                };
                if s.preemptions == 0 && settled_before_fork {
                    prop_assert_eq!(
                        format!("{b:?}"),
                        format!("{s:?}"),
                        "a job settled before the first preemption differs in\n{jobfile}"
                    );
                }
            }
            Ok(())
        },
    );
}
