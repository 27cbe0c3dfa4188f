//! Batch results: per-job records and the aggregate report, in human
//! and stable-JSON form.
//!
//! The JSON goes through the shared writer (`vpce_diag::json`) with a
//! fixed key order and numbers that never use exponents, so the same
//! batch produces a byte-identical artifact on every run — the
//! golden-file CI test and the determinism property both diff it
//! literally.

use std::fmt::Write as _;

use vbus_sim::Mesh;
use vpce_diag::json::{self, Layout, Object};
use vpce_trace::critical::Breakdown;

use crate::job::Policy;
use crate::partition::Partition;

/// One executed attempt: when it ran and exactly where. The audit
/// trail behind the no-overlap safety property and the CI drain
/// checks; not part of the JSON report.
#[derive(Debug, Clone)]
pub struct AttemptLog {
    pub job: String,
    /// 0-based attempt number (> 0 means a requeue).
    pub attempt: u32,
    pub start: f64,
    pub end: f64,
    pub partition: Partition,
    pub ok: bool,
}

/// Terminal state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed (possibly after requeues).
    Done,
    /// All attempts exhausted, or the job became infeasible after a
    /// node drain.
    Failed,
    /// Refused at admission (never queued).
    Rejected,
}

impl JobStatus {
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Rejected => "rejected",
        }
    }
}

/// Everything the scheduler learned about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub name: String,
    /// Fair-share tenant (`"-"` when the job claimed none).
    pub tenant: String,
    pub ranks: usize,
    /// Partition rectangle as placed for the final attempt
    /// (requested shape for jobs that never started).
    pub shape: Mesh,
    pub status: JobStatus,
    pub arrival: f64,
    /// First-attempt start time (`None` for rejected jobs).
    pub start: Option<f64>,
    /// Completion / failure time.
    pub end: Option<f64>,
    /// Total virtual seconds spent queued (across requeues).
    pub queue_wait: f64,
    /// Machine node ids of the final placement.
    pub nodes: Vec<usize>,
    pub attempts: u32,
    pub requeues: u32,
    /// Times the job was checkpointed off its partition and resumed
    /// later (`vpce-serve` preemption; always 0 in plain batch runs).
    pub preemptions: u32,
    /// `Full`-mode byte-identity of the final arrays against the
    /// fault-free dry run (`None` when the job never finished or the
    /// batch ran analytically).
    pub identical: Option<bool>,
    /// Stable error kind + one-line message for failed/rejected jobs.
    pub error: Option<(String, String)>,
    pub missed_deadline: bool,
    /// Critical-path components of the final attempt, queue wait
    /// included (tiles `[0, turnaround]`).
    pub breakdown: Option<Breakdown>,
    pub net_messages: u64,
    pub net_bytes: u64,
}

impl JobRecord {
    /// Turnaround: arrival to completion.
    pub fn makespan(&self) -> Option<f64> {
        self.end.map(|e| e - self.arrival)
    }
}

/// The whole batch: per-job records plus aggregates.
#[derive(Debug, Clone)]
pub struct BatchReport {
    pub nodes: usize,
    pub mesh: Mesh,
    pub policy: Policy,
    pub seed: u64,
    pub records: Vec<JobRecord>,
    /// Most partitions simultaneously resident on the mesh.
    pub peak_concurrent: usize,
    /// Nodes drained by rank crashes, ascending.
    pub drained: Vec<usize>,
    /// Virtual time of the last completion.
    pub horizon: f64,
    /// Busy node-seconds / (usable node-seconds over the horizon).
    pub utilization: f64,
    /// Node-seconds charged per tenant at vacate, ascending by
    /// name. Only rendered when some job claimed a real tenant.
    pub tenant_usage: Vec<(String, f64)>,
    /// Whole-cluster Chrome timeline (one lane per machine node); the
    /// CLI writes it on `--trace`, it is not part of the JSON report.
    pub trace_json: String,
    /// Every executed attempt with its interval and partition.
    pub attempts: Vec<AttemptLog>,
}

impl BatchReport {
    /// Process exit code for the batch: 4 if any job was refused at
    /// admission, else 3 if any admitted job failed, else 0 (a batch
    /// that survived via requeues exits clean).
    pub fn exit_code(&self) -> i32 {
        if self.rejected() > 0 {
            4
        } else if self.failed() > 0 {
            3
        } else {
            0
        }
    }

    pub fn done(&self) -> usize {
        self.count(JobStatus::Done)
    }
    pub fn failed(&self) -> usize {
        self.count(JobStatus::Failed)
    }
    pub fn rejected(&self) -> usize {
        self.count(JobStatus::Rejected)
    }
    fn count(&self, s: JobStatus) -> usize {
        self.records.iter().filter(|r| r.status == s).count()
    }

    pub fn requeues(&self) -> u32 {
        self.records.iter().map(|r| r.requeues).sum()
    }

    /// Completed jobs per virtual second over the horizon.
    pub fn throughput(&self) -> f64 {
        if self.horizon > 0.0 {
            self.done() as f64 / self.horizon
        } else {
            0.0
        }
    }

    fn finished_metric(&self, f: impl Fn(&JobRecord) -> Option<f64>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.status == JobStatus::Done)
            .filter_map(f)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// `(p50, p99)` of queue wait over completed jobs.
    pub fn queue_wait_percentiles(&self) -> (f64, f64) {
        let v = self.finished_metric(|r| Some(r.queue_wait));
        (percentile(&v, 50.0), percentile(&v, 99.0))
    }

    /// `(p50, p99)` of turnaround over completed jobs.
    pub fn makespan_percentiles(&self) -> (f64, f64) {
        let v = self.finished_metric(|r| r.makespan());
        (percentile(&v, 50.0), percentile(&v, 99.0))
    }

    /// The human report `vpcec --batch` prints.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch: {} nodes ({}x{} mesh) | policy {} | seed {}",
            self.nodes, self.mesh.cols, self.mesh.rows, self.policy.name(), self.seed
        );
        let _ = writeln!(
            out,
            "  jobs: {} submitted | {} done | {} failed | {} rejected | {} requeues",
            self.records.len(),
            self.done(),
            self.failed(),
            self.rejected(),
            self.requeues()
        );
        let _ = writeln!(
            out,
            "  peak concurrency {} partitions | utilization {:.1}% | horizon {:.6}s",
            self.peak_concurrent,
            self.utilization * 100.0,
            self.horizon
        );
        let (qw50, qw99) = self.queue_wait_percentiles();
        let (ms50, ms99) = self.makespan_percentiles();
        let _ = writeln!(
            out,
            "  queue wait p50 {:.6}s p99 {:.6}s | makespan p50 {:.6}s p99 {:.6}s",
            qw50, qw99, ms50, ms99
        );
        let _ = writeln!(
            out,
            "  throughput {:.3} jobs/s",
            self.throughput()
        );
        if !self.drained.is_empty() {
            let ids: Vec<String> = self.drained.iter().map(|n| n.to_string()).collect();
            let _ = writeln!(out, "  drained nodes: {}", ids.join(", "));
        }
        if self.has_real_tenants() {
            let parts: Vec<String> = self
                .tenant_usage
                .iter()
                .map(|(t, u)| format!("{t} {u:.6} node-s"))
                .collect();
            let _ = writeln!(out, "  tenant usage: {}", parts.join(" | "));
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>5} {:>5} {:>8} {:>10} {:>10} {:>10} {:>4} notes",
            "job", "ranks", "shape", "status", "arrive", "wait", "makespan", "try"
        );
        for r in &self.records {
            let shape = format!("{}x{}", r.shape.cols, r.shape.rows);
            let mk = r
                .makespan()
                .map(|m| format!("{m:.6}"))
                .unwrap_or_else(|| "-".into());
            let mut notes = Vec::new();
            if r.requeues > 0 {
                notes.push(format!("requeued x{}", r.requeues));
            }
            if let Some(id) = r.identical {
                notes.push(format!("identical {id}"));
            }
            if r.missed_deadline {
                notes.push("missed deadline".into());
            }
            if let Some((kind, _)) = &r.error {
                notes.push(kind.clone());
            }
            let _ = writeln!(
                out,
                "  {:<10} {:>5} {:>5} {:>8} {:>10.6} {:>10.6} {:>10} {:>4} {}",
                r.name,
                r.ranks,
                shape,
                r.status.name(),
                r.arrival,
                r.queue_wait,
                mk,
                r.attempts,
                notes.join("; ")
            );
        }
        out
    }

    /// Stable JSON: fixed key order, no exponents, byte-identical for
    /// identical batches.
    pub fn to_json(&self) -> String {
        json::document(Layout::Block(2), |o| {
            o.int("nodes", self.nodes)
                .str("mesh", &format!("{}x{}", self.mesh.cols, self.mesh.rows))
                .str("policy", self.policy.name())
                .int("seed", self.seed)
                .int("submitted", self.records.len())
                .int("done", self.done())
                .int("failed", self.failed())
                .int("rejected", self.rejected())
                .int("requeues", self.requeues())
                .int("peak_concurrent", self.peak_concurrent)
                .ints("drained", &self.drained)
                .num("horizon_s", self.horizon)
                .num("throughput_jobs_per_s", self.throughput())
                .num("utilization", self.utilization);
            let (qw50, qw99) = self.queue_wait_percentiles();
            let (ms50, ms99) = self.makespan_percentiles();
            o.num("queue_wait_p50_s", qw50)
                .num("queue_wait_p99_s", qw99)
                .num("makespan_p50_s", ms50)
                .num("makespan_p99_s", ms99);
            if self.has_real_tenants() {
                let mut usage = o.object("tenant_usage_node_s", Layout::Inline);
                for (t, u) in &self.tenant_usage {
                    usage.num(t, *u);
                }
            }
            if self.records.is_empty() {
                // An empty batch (a serve script that submits nothing)
                // has always closed its job list on a line of its own.
                o.raw("jobs", "[\n  ]");
                return;
            }
            let mut jobs = o.array("jobs", Layout::Block(4));
            for r in &self.records {
                write_job(&mut jobs.object(Layout::Block(6)), r);
            }
        })
    }

    /// True when any job claimed a tenant other than the implicit one.
    fn has_real_tenants(&self) -> bool {
        self.records
            .iter()
            .any(|r| r.tenant != crate::job::DEFAULT_TENANT)
    }
}

/// One job record's members, in the fixed order the batch goldens pin.
fn write_job(o: &mut Object<'_>, r: &JobRecord) {
    o.str("name", &r.name)
        .str("tenant", &r.tenant)
        .int("ranks", r.ranks)
        .str("shape", &format!("{}x{}", r.shape.cols, r.shape.rows))
        .str("status", r.status.name())
        .num("arrival_s", r.arrival)
        .opt("start_s", r.start, Object::num)
        .opt("end_s", r.end, Object::num)
        .num("queue_wait_s", r.queue_wait)
        .opt("makespan_s", r.makespan(), Object::num)
        .ints("nodes", &r.nodes)
        .int("attempts", r.attempts)
        .int("requeues", r.requeues)
        .int("preemptions", r.preemptions)
        .opt("identical", r.identical, Object::bool)
        .bool("missed_deadline", r.missed_deadline);
    match &r.error {
        Some((kind, msg)) => o.str("error_kind", kind).str("error", msg),
        None => o.null("error_kind").null("error"),
    };
    o.opt("breakdown", r.breakdown.as_ref(), |o, key, b| {
        o.object(key, Layout::Inline)
            .num("queue", b.queue)
            .num("compute", b.compute)
            .num("setup", b.setup)
            .num("occupancy", b.occupancy)
            .num("wait", b.wait)
            .num("recovery", b.recovery);
        o
    })
    .int("net_messages", r.net_messages)
    .int("net_bytes", r.net_bytes);
}

/// Nearest-rank percentile of an ascending-sorted slice (0 if empty).
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, status: JobStatus, wait: f64, end: Option<f64>) -> JobRecord {
        JobRecord {
            name: name.into(),
            tenant: crate::job::DEFAULT_TENANT.into(),
            ranks: 2,
            shape: Mesh::new(2, 1),
            status,
            arrival: 0.0,
            start: end.map(|_| wait),
            end,
            queue_wait: wait,
            nodes: vec![0, 1],
            attempts: 1,
            requeues: 0,
            preemptions: 0,
            identical: end.map(|_| true),
            error: None,
            missed_deadline: false,
            breakdown: None,
            net_messages: 3,
            net_bytes: 128,
        }
    }

    fn report(records: Vec<JobRecord>) -> BatchReport {
        BatchReport {
            nodes: 16,
            mesh: Mesh::new(4, 4),
            policy: Policy::Backfill,
            seed: 1,
            records,
            peak_concurrent: 2,
            drained: vec![],
            horizon: 1.0,
            utilization: 0.25,
            tenant_usage: Vec::new(),
            trace_json: String::new(),
            attempts: Vec::new(),
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn aggregates_count_by_status() {
        let rep = report(vec![
            record("a", JobStatus::Done, 0.1, Some(0.5)),
            record("b", JobStatus::Done, 0.3, Some(0.9)),
            record("c", JobStatus::Failed, 0.0, Some(1.0)),
            record("d", JobStatus::Rejected, 0.0, None),
        ]);
        assert_eq!((rep.done(), rep.failed(), rep.rejected()), (2, 1, 1));
        assert_eq!(rep.throughput(), 2.0);
        let (p50, p99) = rep.queue_wait_percentiles();
        assert_eq!((p50, p99), (0.1, 0.3), "failed/rejected jobs excluded");
    }

    #[test]
    fn json_is_stable_and_escapes_strings() {
        let mut r = record("we\"ird", JobStatus::Failed, 0.0, Some(1.0));
        r.error = Some(("rank-crash".into(), "rank 1 crashed".into()));
        let rep = report(vec![r]);
        let a = rep.to_json();
        assert_eq!(a, rep.to_json(), "rendering is pure");
        assert!(a.contains("\"we\\\"ird\""), "{a}");
        assert!(a.contains("\"error_kind\": \"rank-crash\""), "{a}");
        assert!(a.contains("\"policy\": \"backfill\""), "{a}");
    }

    #[test]
    fn json_str_is_the_shared_escaper_in_quotes() {
        // `\r` and `\t` take the two-character form every vpce-diag
        // report uses; other control characters the `\u00XX` form.
        let raw = "a\"b\\c\nd\re\tf\u{1}";
        let a = report(vec![record(raw, JobStatus::Done, 0.1, Some(0.5))]).to_json();
        let mut lit = String::new();
        json::string(&mut lit, raw);
        assert_eq!(lit, r#""a\"b\\c\nd\re\tf\u0001""#);
        assert!(a.contains(&format!("\"name\": {lit}")), "{a}");
    }

    #[test]
    fn tenant_usage_renders_only_for_real_tenants() {
        let mut rep = report(vec![record("a", JobStatus::Done, 0.1, Some(0.5))]);
        rep.tenant_usage = vec![("-".into(), 1.0)];
        assert!(!rep.to_json().contains("tenant_usage_node_s"));
        assert!(!rep.render_human().contains("tenant usage"));
        rep.records[0].tenant = "acme".into();
        rep.tenant_usage = vec![("acme".into(), 1.0)];
        assert!(rep.to_json().contains("\"tenant_usage_node_s\": {\"acme\": 1}"));
        assert!(rep.to_json().contains("\"tenant\": \"acme\""));
        assert!(rep.render_human().contains("tenant usage: acme"));
    }

    #[test]
    fn human_report_lists_every_job() {
        let rep = report(vec![
            record("a", JobStatus::Done, 0.1, Some(0.5)),
            record("b", JobStatus::Rejected, 0.0, None),
        ]);
        let h = rep.render_human();
        assert!(h.contains("2 submitted | 1 done"), "{h}");
        assert!(h.lines().any(|l| l.contains("rejected")), "{h}");
        assert!(h.contains("identical true"), "{h}");
    }
}
