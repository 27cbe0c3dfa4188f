//! The job model and the jobfile format.
//!
//! A jobfile is line-oriented: `#` starts a comment, blank lines are
//! skipped, and each remaining line is either a header directive
//! (`nodes=16`, `policy=backfill`, `seed=1`), a `tenant` declaration,
//! or a whitespace-separated `key=value` record introduced by `job` or
//! `storm`:
//!
//! ```text
//! # a 16-node batch
//! nodes=16
//! policy=backfill
//! seed=1
//! tenant name=acme share=2 quota=8
//!
//! job name=mm0 tenant=acme workload=mm ranks=2 param:N=16 arrive=0.0 prio=1
//! job name=wide src=examples/fortran/mm.f ranks=8 grain=coarse
//! job name=risky workload=mm ranks=2 faults=crashy,seed=7 retries=3
//! storm count=8 prefix=s workload=mm ranks=2 param:N=16 mean-gap=2e-4
//! ```
//!
//! `storm` is the seeded synthetic arrival generator: `count` jobs
//! cloned from the record's template, with exponentially distributed
//! inter-arrival gaps (mean `mean-gap` virtual seconds) drawn from the
//! batch seed — the deterministic traffic-storm scenario the property
//! suite and `bench::sched` sweep.
//!
//! `tenant` declares a fair-share principal: `share` weights the
//! scheduler's usage-normalised queue order, `quota` caps the node
//! cells the tenant may hold concurrently. Jobs name their tenant with
//! `tenant=`; undeclared tenants are implicit (share 1, no quota).
//!
//! Parse failures are typed [`JobfileError`]s carrying the file, line,
//! offending field and a stable `vpce-diag` code (VPCE31x), and every
//! record has a canonical serialized form ([`JobSpec::to_record`],
//! [`StormSpec::to_record`]) that re-parses to an equal value — the
//! `vpce-serve` journal writes records in exactly this form.

use std::fmt;

use lmad::Granularity;
use vpce_diag::settings::{self, Refusal, Seen, SettingError};
use vpce_diag::{DiagCode, Diagnostic, Severity};
use vpce_faults::FaultSpec;
use vpce_testkit::rng::SplitMix64;

/// Tenant name of jobs that did not claim one.
pub const DEFAULT_TENANT: &str = "-";

/// Stable diagnostic codes for jobfile parse failures (the VPCE31x
/// block of the service-layer registry; see `vpce-diag`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobfileCode {
    /// VPCE310: the line is not a record, declaration or header.
    BadLine,
    /// VPCE311: unknown record key or header directive.
    UnknownKey,
    /// VPCE312: a value failed to parse or is out of range.
    BadValue,
    /// VPCE313: a required field is missing.
    MissingField,
    /// VPCE314: duplicate job or tenant name.
    DuplicateName,
    /// VPCE315: mutually exclusive fields given together.
    ConflictingFields,
    /// VPCE316: a header directive, or a key of one record, given
    /// twice.
    DuplicateKey,
}

impl DiagCode for JobfileCode {
    fn as_str(self) -> &'static str {
        match self {
            JobfileCode::BadLine => "VPCE310",
            JobfileCode::UnknownKey => "VPCE311",
            JobfileCode::BadValue => "VPCE312",
            JobfileCode::MissingField => "VPCE313",
            JobfileCode::DuplicateName => "VPCE314",
            JobfileCode::ConflictingFields => "VPCE315",
            JobfileCode::DuplicateKey => "VPCE316",
        }
    }

    fn severity(self) -> Severity {
        Severity::Error
    }
}

/// A typed jobfile parse failure: which file and line, which field,
/// and a stable code — instead of a bare string.
#[derive(Debug, Clone, PartialEq)]
pub struct JobfileError {
    pub code: JobfileCode,
    /// Jobfile name when the caller supplied one
    /// ([`BatchSpec::parse_named`]); rendered as `jobfile` otherwise.
    pub file: Option<String>,
    /// 1-based line; 0 when the failure is not tied to one line
    /// (post-expansion name collisions).
    pub line: usize,
    /// The offending record field, when one is identifiable.
    pub field: Option<String>,
    pub detail: String,
}

impl JobfileError {
    fn new(code: JobfileCode, detail: impl Into<String>) -> Self {
        JobfileError { code, file: None, line: 0, field: None, detail: detail.into() }
    }

    fn field(mut self, f: impl Into<String>) -> Self {
        self.field = Some(f.into());
        self
    }

    fn at(mut self, line: usize, file: Option<&str>) -> Self {
        self.line = line;
        self.file = file.map(str::to_string);
        self
    }

    /// The finding as a `vpce-diag` record (for callers that aggregate
    /// jobfile problems into a diagnostic report).
    pub fn to_diagnostic(&self) -> Diagnostic<JobfileCode> {
        let mut d = Diagnostic::bare(self.code);
        d.line = self.line;
        d.site = "jobfile".into();
        d.detail = match &self.field {
            Some(f) => format!("{} (field `{f}`)", self.detail),
            None => self.detail.clone(),
        };
        d
    }
}

impl fmt::Display for JobfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.file.as_deref().unwrap_or("jobfile"))?;
        if self.line > 0 {
            write!(f, " line {}", self.line)?;
        }
        write!(f, ": error[{}] {}", self.code.as_str(), self.detail)?;
        if let Some(field) = &self.field {
            write!(f, " (field `{field}`)")?;
        }
        Ok(())
    }
}

impl std::error::Error for JobfileError {}

/// A fair-share principal: jobs carrying `tenant=<name>` are accounted
/// and throttled together.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    pub name: String,
    /// Fair-share weight (> 0): queue order normalises accumulated
    /// node-seconds by this.
    pub share: f64,
    /// Maximum node cells the tenant may hold concurrently; `None` is
    /// unbounded.
    pub quota: Option<usize>,
}

impl TenantSpec {
    /// The implicit tenant jobs get when they name an undeclared one.
    pub fn implicit(name: impl Into<String>) -> Self {
        TenantSpec { name: name.into(), share: 1.0, quota: None }
    }

    /// Canonical `tenant` declaration line; re-parses to an equal
    /// value.
    pub fn to_record(&self) -> String {
        let mut s = format!("tenant name={} share={}", self.name, self.share);
        if let Some(q) = self.quota {
            s.push_str(&format!(" quota={q}"));
        }
        s
    }
}

/// Where a job's program text comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// F77-mini source held inline (API submissions, property tests,
    /// `inline=` records with percent-encoded text).
    Inline(String),
    /// A path resolved by the caller-supplied source loader
    /// (`src=` in a jobfile; the CLI resolves relative to the
    /// jobfile's directory).
    Path(String),
    /// One of the built-in paper workloads (`workload=mm|swim|cfft|
    /// irregular`), resolved without any I/O.
    Workload(String),
}

/// One batch job: what to run, how wide, and how urgently.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique name within the batch.
    pub name: String,
    /// Fair-share principal ([`DEFAULT_TENANT`] when unclaimed).
    pub tenant: String,
    pub source: JobSource,
    /// Requested ranks (the partition may reserve a few spare router
    /// positions on top — see `cluster_sim::partition_shape`).
    pub ranks: usize,
    /// Higher runs first; ties broken by fair-share ratio, arrival
    /// time, then submission order.
    pub priority: i64,
    /// Virtual submission time, seconds.
    pub arrival: f64,
    /// Soft deadline hint (virtual seconds of turnaround); the report
    /// flags jobs that missed it, the scheduler does not kill them.
    pub deadline: Option<f64>,
    /// `PARAMETER` overrides, `(NAME, value)`.
    pub params: Vec<(String, i64)>,
    /// Explicit communication granularity; `None` asks the advisor
    /// (`polaris_be::advise`), which simulates every grain on the job's
    /// partition.
    pub granularity: Option<Granularity>,
    /// Per-job fault schedule (each requeue re-seeds it
    /// deterministically).
    pub faults: FaultSpec,
    /// How many times a fault-failed job may be requeued.
    pub retries: u32,
    /// In-run rollback recovery (`recover=`): survivable crashes are
    /// absorbed by buddy checkpoints + spare failover instead of
    /// surfacing as a requeue; `None` keeps the requeue path.
    pub recover: Option<vpce_recover::RecoverSpec>,
    /// Built-in machine description the job's partition lowers through
    /// (`machine=`; see `vpce_machine::MachineSpec::BUILTINS`). Only
    /// built-in names are accepted so a journaled record stays
    /// self-contained; `None` is the hard-coded paper machine (or the
    /// batch-level default).
    pub machine: Option<String>,
}

impl JobSpec {
    /// A job with neutral defaults: priority 0, arrival 0, no
    /// deadline, advisor granularity, faults off, 2 retries, default
    /// tenant.
    pub fn new(name: impl Into<String>, source: JobSource, ranks: usize) -> Self {
        JobSpec {
            name: name.into(),
            tenant: DEFAULT_TENANT.to_string(),
            source,
            ranks,
            priority: 0,
            arrival: 0.0,
            deadline: None,
            params: Vec::new(),
            granularity: None,
            faults: FaultSpec::off(),
            retries: 2,
            recover: None,
            machine: None,
        }
    }

    /// Canonical `job` record line: parsing it back yields an equal
    /// spec (`f64` fields print in shortest round-trip form). The
    /// `vpce-serve` journal stores submissions in exactly this form.
    pub fn to_record(&self) -> String {
        let mut s = format!("job name={}", self.name);
        s.push_str(&self.record_fields(true));
        s
    }

    /// The canonical record of exactly the fields a compile or an
    /// attempt outcome depends on: the job's record with the fields
    /// that only say who asks, when and how urgently — name, tenant,
    /// priority, arrival, deadline, retries — left out. Two jobs with
    /// equal keys are the same piece of work and [`crate::Runner`]
    /// executes it once. A field added to the record later is part of
    /// the key unless it is named here as scheduling-only.
    pub fn work_key(&self) -> String {
        let work = JobSpec {
            tenant: DEFAULT_TENANT.to_string(),
            priority: 0,
            arrival: 0.0,
            deadline: None,
            retries: 2,
            ..self.clone()
        };
        work.record_fields(true)
    }

    /// The job with nothing armed against it: what admission dry-runs.
    pub(crate) fn fault_free(&self) -> JobSpec {
        JobSpec { faults: FaultSpec::off(), recover: None, ..self.clone() }
    }

    /// The non-name fields of the record, canonically ordered.
    fn record_fields(&self, with_arrival: bool) -> String {
        let mut s = String::new();
        if self.tenant != DEFAULT_TENANT {
            s.push_str(&format!(" tenant={}", self.tenant));
        }
        match &self.source {
            JobSource::Workload(w) => s.push_str(&format!(" workload={w}")),
            JobSource::Path(p) => s.push_str(&format!(" src={p}")),
            JobSource::Inline(text) => s.push_str(&format!(" inline={}", encode_inline(text))),
        }
        s.push_str(&format!(" ranks={}", self.ranks));
        if with_arrival && self.arrival != 0.0 {
            s.push_str(&format!(" arrive={}", self.arrival));
        }
        if self.priority != 0 {
            s.push_str(&format!(" prio={}", self.priority));
        }
        if let Some(d) = self.deadline {
            s.push_str(&format!(" deadline={d}"));
        }
        if let Some(g) = self.granularity {
            s.push_str(&format!(" grain={}", g.name()));
        }
        let faults = self.faults.to_record();
        if faults != "off" {
            s.push_str(&format!(" faults={faults}"));
        }
        if self.retries != 2 {
            s.push_str(&format!(" retries={}", self.retries));
        }
        if let Some(r) = &self.recover {
            s.push_str(&format!(" recover={}", r.to_record()));
        }
        if let Some(m) = &self.machine {
            s.push_str(&format!(" machine={m}"));
        }
        for (k, v) in &self.params {
            s.push_str(&format!(" param:{k}={v}"));
        }
        s
    }
}

/// Percent-encode inline program text into a single jobfile token:
/// `%` and every whitespace character (the record tokenizer splits on
/// Unicode whitespace, U+00A0 included) escaped as `%XX` per byte.
pub fn encode_inline(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if c == '%' || c.is_whitespace() {
            for b in c.encode_utf8(&mut [0; 4]).bytes() {
                out.push_str(&format!("%{b:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Inverse of [`encode_inline`].
pub fn decode_inline(token: &str) -> Result<String, String> {
    let bytes = token.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("bad %-escape at byte {i}"))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| "inline text is not UTF-8".to_string())
}

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Strict priority-ordered first-come-first-served: nothing starts
    /// while the head of the queue cannot be placed.
    Fcfs,
    /// FCFS with conservative backfill: the blocked head gets a
    /// reservation; later jobs may start only if they provably finish
    /// before it or avoid its rectangle.
    Backfill,
}

impl Policy {
    pub const ALL: [Policy; 2] = [Policy::Fcfs, Policy::Backfill];

    pub fn name(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::Backfill => "backfill",
        }
    }
}

/// A `storm` directive: `count` jobs cloned from `template` with
/// seeded exponential inter-arrival gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct StormSpec {
    /// Name prefix; generated jobs are `<prefix>0`, `<prefix>1`, …
    pub prefix: String,
    pub count: usize,
    /// Mean inter-arrival gap, virtual seconds.
    pub mean_gap_s: f64,
    /// Arrival time of the storm's clock origin.
    pub start_s: f64,
    /// Everything except name and arrival is taken from here.
    pub template: JobSpec,
}

impl StormSpec {
    /// Expand the storm deterministically from `seed`. Gaps are
    /// inverse-CDF exponential draws from a SplitMix64 stream salted
    /// with the prefix, so two storms in one batch decorrelate.
    pub fn expand(&self, seed: u64) -> Vec<JobSpec> {
        let mut h = seed;
        for b in self.prefix.bytes() {
            h = SplitMix64::new(h ^ u64::from(b).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        }
        let mut rng = SplitMix64::new(h);
        let mut t = self.start_s;
        (0..self.count)
            .map(|i| {
                let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                t += -self.mean_gap_s * (1.0 - u).ln();
                let mut job = self.template.clone();
                job.name = format!("{}{}", self.prefix, i);
                job.arrival = t;
                job
            })
            .collect()
    }

    /// Canonical `storm` record line; re-parses to an equal value.
    pub fn to_record(&self) -> String {
        let mut s = format!(
            "storm prefix={} count={} mean-gap={}",
            self.prefix, self.count, self.mean_gap_s
        );
        if self.start_s != 0.0 {
            s.push_str(&format!(" start={}", self.start_s));
        }
        s.push_str(&self.template.record_fields(false));
        s
    }
}

/// A parsed jobfile: header directives, tenants, and the submitted
/// jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchSpec {
    /// Machine size (header `nodes=`); the CLI's `--nodes` is the
    /// fallback when absent.
    pub nodes: Option<usize>,
    pub policy: Option<Policy>,
    /// Batch seed (header `seed=`); `--sched-seed` overrides it.
    pub seed: Option<u64>,
    /// Probation length (header `probation=`, in clean scheduler
    /// intervals): crashed nodes reintegrate after this many
    /// crash-free attempt completions instead of draining for good.
    /// `None` keeps the permanent-drain default.
    pub probation: Option<u32>,
    /// Default machine description (header `machine=`, a built-in
    /// name): jobs without their own `machine=` field lower through
    /// it. Wins over the CLI's `--machine`.
    pub machine: Option<String>,
    /// Declared fair-share tenants.
    pub tenants: Vec<TenantSpec>,
    pub jobs: Vec<JobSpec>,
    pub storms: Vec<StormSpec>,
}

impl BatchSpec {
    /// Parse a jobfile. Errors are typed [`JobfileError`]s naming the
    /// offending line and field.
    pub fn parse(text: &str) -> Result<Self, JobfileError> {
        Self::parse_inner(text, None)
    }

    /// [`BatchSpec::parse`] with a file name carried into errors.
    pub fn parse_named(text: &str, file: &str) -> Result<Self, JobfileError> {
        Self::parse_inner(text, Some(file))
    }

    fn parse_inner(text: &str, file: Option<&str>) -> Result<Self, JobfileError> {
        let mut spec = BatchSpec::default();
        let mut headers = Seen::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let at = |e: JobfileError| e.at(lineno + 1, file);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let head = tokens.next().expect("non-empty line");
            match head {
                "job" => {
                    let job = parse_record(tokens, /*storm*/ false).map_err(at)?.job;
                    if spec.jobs.iter().any(|j| j.name == job.name) {
                        return Err(at(JobfileError::new(
                            JobfileCode::DuplicateName,
                            format!("duplicate job name `{}`", job.name),
                        )
                        .field("name")));
                    }
                    spec.jobs.push(job);
                }
                "storm" => spec.storms.push(parse_storm(tokens).map_err(at)?),
                "tenant" => {
                    let t = parse_tenant(tokens).map_err(at)?;
                    if spec.tenants.iter().any(|x| x.name == t.name) {
                        return Err(at(JobfileError::new(
                            JobfileCode::DuplicateName,
                            format!("duplicate tenant `{}`", t.name),
                        )
                        .field("name")));
                    }
                    spec.tenants.push(t);
                }
                _ => {
                    let (k, v) = settings::key_value(head).map_err(|_| {
                        at(JobfileError::new(
                            JobfileCode::BadLine,
                            format!("expected `job`, `storm`, `tenant` or `key=value`, got `{head}`"),
                        ))
                    })?;
                    if tokens.next().is_some() {
                        return Err(at(JobfileError::new(
                            JobfileCode::BadLine,
                            "header directives take a single key=value",
                        )));
                    }
                    headers.insert(k).map_err(|e| at(refused(e)))?;
                    spec.header(k, v).map_err(|e| at(refused(e)))?;
                }
            }
        }
        Ok(spec)
    }

    /// Apply one header directive.
    fn header(&mut self, k: &str, v: &str) -> Result<(), SettingError> {
        let bad = |why| SettingError::bad_value(k, why);
        match k {
            "nodes" => self.nodes = Some(settings::number(v).map_err(bad)?),
            "policy" => {
                self.policy = Some(settings::choice(v, &Policy::ALL, Policy::name).map_err(bad)?)
            }
            "seed" => self.seed = Some(settings::number(v).map_err(bad)?),
            "machine" => self.machine = Some(checked_machine(v).map_err(bad)?),
            "probation" => self.probation = Some(settings::count(v).map_err(bad)?),
            other => {
                return Err(SettingError::new(
                    Refusal::Unknown,
                    other,
                    format!("unknown header directive `{other}`"),
                ))
            }
        }
        Ok(())
    }

    /// The declared tenant of `name`, or the implicit one.
    pub fn tenant(&self, name: &str) -> TenantSpec {
        self.tenants
            .iter()
            .find(|t| t.name == name)
            .cloned()
            .unwrap_or_else(|| TenantSpec::implicit(name))
    }

    /// Explicit jobs plus every storm expansion under `seed`, checked
    /// for name collisions (a storm prefix may not shadow an explicit
    /// job or another storm).
    pub fn materialize(&self, seed: u64) -> Result<Vec<JobSpec>, JobfileError> {
        let mut jobs = self.jobs.clone();
        for storm in &self.storms {
            jobs.extend(storm.expand(seed));
        }
        let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(JobfileError::new(
                JobfileCode::DuplicateName,
                format!("duplicate job name `{}` after storm expansion", w[0]),
            )
            .field("name"));
        }
        Ok(jobs)
    }
}

/// Shared field grammar for `job` and `storm` records. For storms the
/// `name=` key is the prefix and `arrive=` the storm origin.
struct RecordFields {
    job: JobSpec,
    named: bool,
    sourced: bool,
    count: Option<usize>,
    mean_gap_s: f64,
}

fn err(code: JobfileCode, field: &str, detail: impl Into<String>) -> JobfileError {
    JobfileError::new(code, detail).field(field)
}

/// A refused setting as a jobfile error, field named.
fn refused(e: SettingError) -> JobfileError {
    let code = match e.refusal {
        Refusal::NotKeyValue => return JobfileError::new(JobfileCode::BadLine, e.detail),
        Refusal::Repeated => JobfileCode::DuplicateKey,
        Refusal::Unknown => JobfileCode::UnknownKey,
        Refusal::BadValue => JobfileCode::BadValue,
    };
    err(code, &e.key, e.detail)
}

/// The `key=value` tokens of one record, each key once (`prefix=` is
/// the storm's `name=`, `start=` its `arrive=`).
fn record_pairs<'a>(
    tokens: impl Iterator<Item = &'a str>,
) -> Result<Vec<(&'a str, &'a str)>, JobfileError> {
    let mut seen = Seen::default();
    tokens
        .map(|tok| {
            let (k, v) = settings::key_value(tok).map_err(refused)?;
            let canonical = match k {
                "prefix" => "name",
                "start" => "arrive",
                k => k,
            };
            seen.insert(canonical).map_err(refused)?;
            Ok((k, v))
        })
        .collect()
}

fn parse_record<'a>(
    tokens: impl Iterator<Item = &'a str>,
    storm: bool,
) -> Result<RecordFields, JobfileError> {
    let mut f = RecordFields {
        job: JobSpec::new("", JobSource::Inline(String::new()), 0),
        named: false,
        sourced: false,
        count: None,
        mean_gap_s: 1e-4,
    };
    for (k, v) in record_pairs(tokens)? {
        let set_source = |f: &mut RecordFields, k: &str, src: JobSource| {
            if f.sourced {
                let detail = "a job takes exactly one of src=/workload=/inline=";
                return Err(err(JobfileCode::ConflictingFields, k, detail));
            }
            f.sourced = true;
            f.job.source = src;
            Ok(())
        };
        let bad = |why: String| refused(SettingError::bad_value(k, why));
        match k {
            "name" | "prefix" => {
                f.job.name = v.to_string();
                f.named = true;
            }
            "tenant" => f.job.tenant = v.to_string(),
            "src" => set_source(&mut f, k, JobSource::Path(v.to_string()))?,
            "workload" => set_source(&mut f, k, JobSource::Workload(v.to_string()))?,
            "inline" => {
                let text = decode_inline(v).map_err(|e| bad(format!("is bad inline text: {e}")))?;
                set_source(&mut f, k, JobSource::Inline(text))?;
            }
            "ranks" => f.job.ranks = settings::number(v).map_err(bad)?,
            "arrive" | "start" => f.job.arrival = settings::seconds(v).map_err(bad)?,
            "prio" => f.job.priority = settings::number(v).map_err(bad)?,
            "deadline" => f.job.deadline = Some(settings::seconds(v).map_err(bad)?),
            "grain" => {
                let g = settings::choice(v, &Granularity::ALL, Granularity::name).map_err(bad)?;
                f.job.granularity = Some(g);
            }
            "faults" => f.job.faults = FaultSpec::parse(v).map_err(|e| bad(e.to_string()))?,
            "retries" => f.job.retries = settings::number(v).map_err(bad)?,
            "recover" => f.job.recover = Some(vpce_recover::RecoverSpec::parse(v).map_err(bad)?),
            "machine" => f.job.machine = Some(checked_machine(v).map_err(bad)?),
            "count" if storm => f.count = Some(settings::count(v).map_err(bad)?),
            "mean-gap" if storm => f.mean_gap_s = settings::positive(v).map_err(bad)?,
            _ if k.starts_with("param:") => {
                let name = k["param:".len()..].to_ascii_uppercase();
                f.job.params.push((name, settings::number(v).map_err(bad)?));
            }
            other => {
                return Err(err(JobfileCode::UnknownKey, other, format!("unknown key `{other}`")))
            }
        }
    }
    let missing = |field, what| Err(err(JobfileCode::MissingField, field, what));
    if !f.named {
        let (field, what) = if storm { ("prefix", "storm needs prefix=") } else { ("name", "job needs name=") };
        return missing(field, what);
    }
    if !f.sourced {
        return missing("src", "job needs src=, workload= or inline=");
    }
    if f.job.ranks == 0 {
        return missing("ranks", "job needs ranks= (at least 1)");
    }
    Ok(f)
}

fn parse_storm<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<StormSpec, JobfileError> {
    let f = parse_record(tokens, true)?;
    let count = f.count.ok_or(err(JobfileCode::MissingField, "count", "storm needs count="))?;
    Ok(StormSpec {
        prefix: f.job.name.clone(),
        count,
        mean_gap_s: f.mean_gap_s,
        start_s: f.job.arrival,
        template: f.job,
    })
}

fn parse_tenant<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<TenantSpec, JobfileError> {
    let mut t = TenantSpec { name: String::new(), share: 1.0, quota: None };
    for (k, v) in record_pairs(tokens)? {
        let bad = |why: String| refused(SettingError::bad_value(k, why));
        match k {
            "name" => t.name = v.to_string(),
            "share" => t.share = settings::positive(v).map_err(bad)?,
            "quota" => t.quota = Some(settings::count(v).map_err(bad)?),
            other => {
                let detail = format!("unknown tenant key `{other}`");
                return Err(err(JobfileCode::UnknownKey, other, detail));
            }
        }
    }
    if t.name.is_empty() {
        return Err(err(JobfileCode::MissingField, "name", "tenant needs name="));
    }
    Ok(t)
}

/// Validate a `machine=` value: only built-in machine-description
/// names are legal in jobfiles, so a journaled record (and the batch
/// replay it drives) stays self-contained — no file ever needs to
/// resolve. Custom `.machine` files enter through the CLI's
/// `--machine` as the batch-level default instead.
fn checked_machine(v: &str) -> Result<String, String> {
    if vpce_machine::MachineSpec::builtin(v).is_some() {
        Ok(v.to_string())
    } else {
        Err(format!(
            "needs a built-in machine description ({}), got `{v}`",
            vpce_machine::MachineSpec::BUILTINS.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "\
# demo batch
nodes=16
policy=backfill
seed=7
tenant name=acme share=2 quota=8

job name=a tenant=acme workload=mm ranks=2 param:N=16 arrive=0.0 prio=1
job name=b src=prog.f ranks=8 grain=coarse deadline=0.5 retries=3
storm count=3 prefix=s workload=mm ranks=2 mean-gap=1e-4 start=2e-4
";

    #[test]
    fn parses_headers_tenants_jobs_and_storms() {
        let spec = BatchSpec::parse(FILE).unwrap();
        assert_eq!(spec.nodes, Some(16));
        assert_eq!(spec.policy, Some(Policy::Backfill));
        assert_eq!(spec.seed, Some(7));
        assert_eq!(
            spec.tenants,
            vec![TenantSpec { name: "acme".into(), share: 2.0, quota: Some(8) }]
        );
        assert_eq!(spec.jobs.len(), 2);
        let a = &spec.jobs[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.tenant, "acme");
        assert_eq!(a.source, JobSource::Workload("mm".into()));
        assert_eq!(a.params, vec![("N".to_string(), 16)]);
        assert_eq!(a.priority, 1);
        let b = &spec.jobs[1];
        assert_eq!(b.tenant, DEFAULT_TENANT);
        assert_eq!(b.source, JobSource::Path("prog.f".into()));
        assert_eq!(b.granularity, Some(Granularity::Coarse));
        assert_eq!(b.deadline, Some(0.5));
        assert_eq!(b.retries, 3);
        assert_eq!(spec.storms.len(), 1);
        assert_eq!(spec.storms[0].count, 3);
        assert_eq!(spec.tenant("acme").quota, Some(8));
        assert_eq!(spec.tenant("ghost"), TenantSpec::implicit("ghost"));
    }

    #[test]
    fn storm_expansion_is_seed_deterministic_and_ordered() {
        let spec = BatchSpec::parse(FILE).unwrap();
        let one = spec.materialize(1).unwrap();
        let two = spec.materialize(1).unwrap();
        assert_eq!(one, two, "same seed, same expansion");
        assert_eq!(one.len(), 5);
        let arrivals: Vec<f64> = one[2..].iter().map(|j| j.arrival).collect();
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]), "{arrivals:?}");
        assert!(arrivals[0] >= 2e-4, "storm starts at its origin");
        let other = spec.materialize(2).unwrap();
        assert_ne!(
            one[2].arrival, other[2].arrival,
            "different seed, different gaps"
        );
    }

    /// Satellite: every malformed-record class reports its typed code,
    /// the 1-based line, and the offending field.
    #[test]
    fn malformed_records_carry_code_line_and_field() {
        use JobfileCode::*;
        for (bad, code, field) in [
            ("job ranks=2 workload=mm", MissingField, Some("name")),
            ("job name=x ranks=2", MissingField, Some("src")),
            ("job name=x workload=mm", MissingField, Some("ranks")),
            ("job name=x workload=mm ranks=2 bogus=1", UnknownKey, Some("bogus")),
            ("job name=x workload=mm src=y ranks=2", ConflictingFields, Some("src")),
            ("job name=x workload=mm ranks=p", BadValue, Some("ranks")),
            ("job name=x workload=mm ranks=2 arrive=-1", BadValue, Some("arrive")),
            ("job name=x workload=mm ranks=2 grain=huge", BadValue, Some("grain")),
            ("job name=x workload=mm ranks=2 faults=wat", BadValue, Some("faults")),
            ("job name=x workload=mm ranks=2 recover=sideways", BadValue, Some("recover")),
            ("job name=x workload=mm ranks=2 recover=on,spares=k", BadValue, Some("recover")),
            ("job name=x inline=%ZZ ranks=2", BadValue, Some("inline")),
            ("storm prefix=s workload=mm ranks=1", MissingField, Some("count")),
            ("storm prefix=s count=0 workload=mm ranks=1", BadValue, Some("count")),
            ("storm prefix=s count=1 mean-gap=0 workload=mm ranks=1", BadValue, Some("mean-gap")),
            ("tenant share=2", MissingField, Some("name")),
            ("tenant name=t share=0", BadValue, Some("share")),
            ("tenant name=t quota=0", BadValue, Some("quota")),
            ("tenant name=t color=red", UnknownKey, Some("color")),
            ("nodes=p", BadValue, Some("nodes")),
            ("policy=roulette", BadValue, Some("policy")),
            ("probation=0", BadValue, Some("probation")),
            ("probation=soon", BadValue, Some("probation")),
            ("speed=9", UnknownKey, Some("speed")),
            ("what", BadLine, None),
            ("job name=x workload=mm ranks=2 extra", BadLine, None),
        ] {
            let e = BatchSpec::parse(bad).unwrap_err();
            assert_eq!(e.code, code, "{bad}: {e}");
            assert_eq!(e.line, 1, "{bad}: {e}");
            assert_eq!(e.field.as_deref(), field, "{bad}: {e}");
            assert!(e.to_string().contains("line 1"), "{bad}: {e}");
            assert!(e.to_string().contains(e.code.as_str()), "{bad}: {e}");
        }
        let dup = "job name=x workload=mm ranks=1\njob name=x workload=mm ranks=1";
        let e = BatchSpec::parse(dup).unwrap_err();
        assert_eq!((e.code, e.line), (DuplicateName, 2));
        let dup = "tenant name=t\ntenant name=t";
        let e = BatchSpec::parse(dup).unwrap_err();
        assert_eq!((e.code, e.line), (DuplicateName, 2));
    }

    #[test]
    fn named_parse_and_diagnostics_carry_the_file() {
        let e = BatchSpec::parse_named("job name=x\n", "examples/jobs/x.jobs").unwrap_err();
        assert_eq!(e.file.as_deref(), Some("examples/jobs/x.jobs"));
        assert!(e.to_string().starts_with("examples/jobs/x.jobs line 1:"), "{e}");
        let d = e.to_diagnostic();
        assert_eq!(d.line, 1);
        assert_eq!(d.site, "jobfile");
        assert!(d.detail.contains("field `src`"), "{}", d.detail);
    }

    #[test]
    fn materialize_rejects_storm_name_collisions() {
        let spec = BatchSpec::parse(
            "job name=s0 workload=mm ranks=1\nstorm count=1 prefix=s workload=mm ranks=1",
        )
        .unwrap();
        let e = spec.materialize(1).unwrap_err();
        assert_eq!(e.code, JobfileCode::DuplicateName);
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn records_round_trip_through_their_canonical_form() {
        let spec = BatchSpec::parse(FILE).unwrap();
        for job in &spec.jobs {
            let line = job.to_record();
            let re = BatchSpec::parse(&line).unwrap();
            assert_eq!(re.jobs.len(), 1, "{line}");
            assert_eq!(&re.jobs[0], job, "{line}");
        }
        for storm in &spec.storms {
            let line = storm.to_record();
            let re = BatchSpec::parse(&line).unwrap();
            assert_eq!(&re.storms[0], storm, "{line}");
        }
        for tenant in &spec.tenants {
            let line = tenant.to_record();
            let re = BatchSpec::parse(&line).unwrap();
            assert_eq!(&re.tenants[0], tenant, "{line}");
        }
        // Inline sources and fault schedules survive the round trip.
        let mut j = JobSpec::new("inl", JobSource::Inline("PROGRAM T\n  X = 1\nEND\n".into()), 2);
        j.tenant = "acme".into();
        j.arrival = 3.25e-4;
        j.faults = FaultSpec::parse("light,seed=9").unwrap();
        j.retries = 5;
        let re = BatchSpec::parse(&j.to_record()).unwrap();
        assert_eq!(re.jobs[0], j);
        // Recovery specs round-trip too — both the bare `on` form and
        // non-default knobs (the serve journal depends on this).
        j.recover = Some(vpce_recover::RecoverSpec::default());
        assert!(j.to_record().ends_with(" recover=on"), "{}", j.to_record());
        let re = BatchSpec::parse(&j.to_record()).unwrap();
        assert_eq!(re.jobs[0], j);
        j.recover = Some(vpce_recover::RecoverSpec::parse("interval=2,buddies=1").unwrap());
        let re = BatchSpec::parse(&j.to_record()).unwrap();
        assert_eq!(re.jobs[0], j);
    }

    #[test]
    fn machine_fields_round_trip_and_screen_unknown_names() {
        // Per-job machine= (a built-in name) survives the canonical
        // record form — the serve journal depends on this.
        let mut j = JobSpec::new("m", JobSource::Workload("mm".into()), 2);
        j.machine = Some("torus3d".into());
        let line = j.to_record();
        assert!(line.contains(" machine=torus3d"), "{line}");
        let re = BatchSpec::parse(&line).unwrap();
        assert_eq!(re.jobs[0], j);
        // The batch-level header parses too, and both spots reject
        // names outside the built-in zoo with the typed VPCE312.
        let spec = BatchSpec::parse("machine=crossbar\njob name=x workload=mm ranks=1").unwrap();
        assert_eq!(spec.machine.as_deref(), Some("crossbar"));
        for bad in [
            "machine=vax780",
            "job name=x workload=mm ranks=1 machine=vax780",
        ] {
            let e = BatchSpec::parse(bad).unwrap_err();
            assert_eq!(e.code, JobfileCode::BadValue, "{bad}: {e}");
            assert_eq!(e.field.as_deref(), Some("machine"), "{bad}: {e}");
            assert!(e.to_string().contains("built-in"), "{bad}: {e}");
        }
    }

    #[test]
    fn inline_encoding_round_trips() {
        let text = "PROGRAM T\n  X = 100%\r\n\tEND\n";
        assert_eq!(decode_inline(&encode_inline(text)).unwrap(), text);
        assert!(!encode_inline(text).contains(char::is_whitespace));
    }
}
