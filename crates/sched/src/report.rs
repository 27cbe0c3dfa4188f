//! Batch results: per-job records and the aggregate report, in human
//! and stable-JSON form.
//!
//! The JSON is hand-rolled with a fixed key order and a formatter that
//! never emits exponents, so the same batch produces a byte-identical
//! artifact on every run — the golden-file CI test and the determinism
//! property both diff it literally.

use std::fmt::Write as _;

use vbus_sim::Mesh;
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
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"nodes\": {},", self.nodes);
        let _ = writeln!(s, "  \"mesh\": \"{}x{}\",", self.mesh.cols, self.mesh.rows);
        let _ = writeln!(s, "  \"policy\": \"{}\",", self.policy.name());
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"submitted\": {},", self.records.len());
        let _ = writeln!(s, "  \"done\": {},", self.done());
        let _ = writeln!(s, "  \"failed\": {},", self.failed());
        let _ = writeln!(s, "  \"rejected\": {},", self.rejected());
        let _ = writeln!(s, "  \"requeues\": {},", self.requeues());
        let _ = writeln!(s, "  \"peak_concurrent\": {},", self.peak_concurrent);
        let drained: Vec<String> = self.drained.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(s, "  \"drained\": [{}],", drained.join(", "));
        let _ = writeln!(s, "  \"horizon_s\": {},", json_num(self.horizon));
        let _ = writeln!(s, "  \"throughput_jobs_per_s\": {},", json_num(self.throughput()));
        let _ = writeln!(s, "  \"utilization\": {},", json_num(self.utilization));
        let (qw50, qw99) = self.queue_wait_percentiles();
        let (ms50, ms99) = self.makespan_percentiles();
        let _ = writeln!(s, "  \"queue_wait_p50_s\": {},", json_num(qw50));
        let _ = writeln!(s, "  \"queue_wait_p99_s\": {},", json_num(qw99));
        let _ = writeln!(s, "  \"makespan_p50_s\": {},", json_num(ms50));
        let _ = writeln!(s, "  \"makespan_p99_s\": {},", json_num(ms99));
        if self.has_real_tenants() {
            let parts: Vec<String> = self
                .tenant_usage
                .iter()
                .map(|(t, u)| format!("{}: {}", json_str(t), json_num(*u)))
                .collect();
            let _ = writeln!(s, "  \"tenant_usage_node_s\": {{{}}},", parts.join(", "));
        }
        s.push_str("  \"jobs\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            s.push_str(&job_json(r, "    "));
            s.push_str(if i + 1 < self.records.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// True when any job claimed a tenant other than the implicit one.
    fn has_real_tenants(&self) -> bool {
        self.records
            .iter()
            .any(|r| r.tenant != crate::job::DEFAULT_TENANT)
    }
}

/// One job record as stable JSON (fixed key order, `pad`-indented, no
/// trailing newline). Public so `vpce-serve` renders its reports in
/// the same shape the batch goldens diff.
pub fn job_json(r: &JobRecord, pad: &str) -> String {
    let mut s = format!("{pad}{{\n");
    let p = format!("{pad}  ");
    let _ = writeln!(s, "{p}\"name\": {},", json_str(&r.name));
    let _ = writeln!(s, "{p}\"tenant\": {},", json_str(&r.tenant));
    let _ = writeln!(s, "{p}\"ranks\": {},", r.ranks);
    let _ = writeln!(s, "{p}\"shape\": \"{}x{}\",", r.shape.cols, r.shape.rows);
    let _ = writeln!(s, "{p}\"status\": \"{}\",", r.status.name());
    let _ = writeln!(s, "{p}\"arrival_s\": {},", json_num(r.arrival));
    let _ = writeln!(s, "{p}\"start_s\": {},", json_opt(r.start));
    let _ = writeln!(s, "{p}\"end_s\": {},", json_opt(r.end));
    let _ = writeln!(s, "{p}\"queue_wait_s\": {},", json_num(r.queue_wait));
    let _ = writeln!(s, "{p}\"makespan_s\": {},", json_opt(r.makespan()));
    let nodes: Vec<String> = r.nodes.iter().map(|n| n.to_string()).collect();
    let _ = writeln!(s, "{p}\"nodes\": [{}],", nodes.join(", "));
    let _ = writeln!(s, "{p}\"attempts\": {},", r.attempts);
    let _ = writeln!(s, "{p}\"requeues\": {},", r.requeues);
    let _ = writeln!(s, "{p}\"preemptions\": {},", r.preemptions);
    let ident = match r.identical {
        Some(b) => b.to_string(),
        None => "null".into(),
    };
    let _ = writeln!(s, "{p}\"identical\": {ident},");
    let _ = writeln!(s, "{p}\"missed_deadline\": {},", r.missed_deadline);
    match &r.error {
        Some((kind, msg)) => {
            let _ = writeln!(s, "{p}\"error_kind\": {},", json_str(kind));
            let _ = writeln!(s, "{p}\"error\": {},", json_str(msg));
        }
        None => {
            let _ = writeln!(s, "{p}\"error_kind\": null,");
            let _ = writeln!(s, "{p}\"error\": null,");
        }
    }
    match &r.breakdown {
        Some(b) => {
            let _ = writeln!(
                s,
                "{p}\"breakdown\": {{\"queue\": {}, \"compute\": {}, \"setup\": {}, \"occupancy\": {}, \"wait\": {}, \"recovery\": {}}},",
                json_num(b.queue),
                json_num(b.compute),
                json_num(b.setup),
                json_num(b.occupancy),
                json_num(b.wait),
                json_num(b.recovery),
            );
        }
        None => {
            let _ = writeln!(s, "{p}\"breakdown\": null,");
        }
    }
    let _ = writeln!(s, "{p}\"net_messages\": {},", r.net_messages);
    let _ = writeln!(s, "{p}\"net_bytes\": {}", r.net_bytes);
    let _ = write!(s, "{pad}}}");
    s
}

/// Nearest-rank percentile of an ascending-sorted slice (0 if empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A float as a JSON number. Rust's `Display` for `f64` never emits
/// exponents; non-finite values mean a broken batch and assert.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite value in batch report: {v}");
    let s = format!("{v}");
    debug_assert!(!s.contains(['e', 'E']), "exponent in JSON number: {s}");
    s
}

/// An optional float as a JSON number or `null`.
pub fn json_opt(v: Option<f64>) -> String {
    v.map(json_num).unwrap_or_else(|| "null".into())
}

/// A string as a JSON string literal (quotes included), escaped the
/// way every other report in the workspace is.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", vpce_diag::json_escape(s))
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
        assert_eq!(json_str(raw), r#""a\"b\\c\nd\re\tf\u0001""#);
        assert_eq!(json_str(raw), format!("\"{}\"", vpce_diag::json_escape(raw)));
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
