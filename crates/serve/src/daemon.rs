//! The daemon shell: the gang scheduler (`vpce_sched::Scheduler`, built
//! preemptive), fed through the line protocol of [`crate::state`], with
//! every transition made durable in a [`Journal`] before the next one
//! happens.
//!
//! The protocol is event sourcing with an audit trail:
//!
//! * **Inputs are the truth.** `submit` applies a command to the
//!   scheduler and then journals it as an `I` record. A command is
//!   *durable* once its record is on storage; a crash between apply
//!   and append simply loses the command (the client never got an
//!   acknowledgement) — restart rebuilds exactly the acknowledged
//!   state.
//! * **Derived ops are audited.** While draining, every scheduling
//!   decision the scheduler emits is appended as a `D` record.
//!   These are redundant (recomputable from the inputs) — which is the
//!   point: on recovery the daemon re-derives the op stream and
//!   cross-checks it against the journaled prefix. Any mismatch means
//!   the journal and the code disagree about history
//!   ([`ServeCode::ReplayDivergence`]) and recovery refuses.
//! * **Finish is sealed.** A completed batch appends an `F` record
//!   carrying CRCs of the final report JSON and trace; a later replay
//!   must reproduce both bit for bit.

use vpce_sched::{BatchReport, Runner, Scheduler};

use crate::codes::{ServeCode, ServeError};
use crate::journal::{Journal, Kind, Storage};
use crate::state;

/// What [`Daemon::open`] found in the journal.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Durable input commands replayed into the scheduler.
    pub inputs: usize,
    /// Derived ops awaiting cross-check during the next drain.
    pub derived: usize,
    /// Torn-tail bytes truncated (VPCE301 when non-zero).
    pub torn_bytes: u64,
    /// Recoveries this journal has survived before this one.
    pub prior_recoveries: u64,
    /// The journal ends in a finish seal: the batch already completed.
    pub finished: bool,
}

/// The persistent job service: scheduler + journal + memoised
/// runner. One `Daemon` is one incarnation of the `vpced` process;
/// the journal is what survives between incarnations.
pub struct Daemon<'r, 's> {
    journal: Journal<'s>,
    sched: Scheduler<'r>,
    /// Session-level `machine=` header (see [`state::apply`]).
    machine: Option<String>,
    /// `I` payloads already durable (replayed on open + appended live).
    inputs: Vec<String>,
    /// `D` payloads from the journal, to be cross-checked in order.
    journaled_ops: Vec<String>,
    ops_matched: usize,
    /// Payload of the `F` record, when the journal is sealed.
    finish_seal: Option<String>,
    report: Option<BatchReport>,
    report_json: Option<String>,
}

impl<'r, 's> Daemon<'r, 's> {
    /// Open (or create) the service over `storage`: load + repair the
    /// journal, replay the durable inputs, mark the recovery.
    pub fn open(
        storage: &'s mut dyn Storage,
        runner: &'r Runner<'r>,
    ) -> Result<(Self, Recovery), ServeError> {
        let (mut journal, loaded) = Journal::load(storage)?;
        let mut sched = Scheduler::new(runner, true);
        let mut machine = None;
        let mut inputs = Vec::new();
        let mut journaled_ops = Vec::new();
        let mut finish_seal = None;
        let mut prior_recoveries = 0;
        for rec in &loaded.records {
            match rec.kind {
                Kind::Input => {
                    state::apply(&mut sched, &mut machine, &rec.payload).map_err(|e| {
                        ServeError::new(
                            ServeCode::ReplayDivergence,
                            format!(
                                "journaled input #{} no longer applies: {} ({e})",
                                rec.seq, rec.payload
                            ),
                        )
                    })?;
                    inputs.push(rec.payload.clone());
                }
                Kind::Derived => journaled_ops.push(rec.payload.clone()),
                Kind::Recover => prior_recoveries += 1,
                Kind::Finish => finish_seal = Some(rec.payload.clone()),
            }
        }
        let recovery = Recovery {
            inputs: inputs.len(),
            derived: journaled_ops.len(),
            torn_bytes: loaded.torn_bytes,
            prior_recoveries,
            finished: finish_seal.is_some(),
        };
        if !loaded.records.is_empty() {
            journal.append(
                Kind::Recover,
                &format!(
                    "replayed inputs={} derived={} torn_bytes={}",
                    recovery.inputs, recovery.derived, recovery.torn_bytes
                ),
            )?;
        }
        Ok((
            Daemon {
                journal,
                sched,
                machine,
                inputs,
                journaled_ops,
                ops_matched: 0,
                finish_seal,
                report: None,
                report_json: None,
            },
            recovery,
        ))
    }

    /// Durable input commands, in order. A restarting client compares
    /// its script against this prefix to know what survived.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Apply one command and make it durable. Blank lines and comments
    /// are ignored (never journaled).
    pub fn submit(&mut self, line: &str) -> Result<(), ServeError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        state::apply(&mut self.sched, &mut self.machine, line)?;
        self.journal.append(Kind::Input, line)?;
        self.inputs.push(line.to_string());
        Ok(())
    }

    /// One-line job status (client `status` verb). Pure read.
    pub fn status(&self, name: &str) -> Result<String, ServeError> {
        state::status_line(&self.sched, name)
    }

    fn journal_op(&mut self, op: String) -> Result<(), ServeError> {
        if self.ops_matched < self.journaled_ops.len() {
            let expected = &self.journaled_ops[self.ops_matched];
            if *expected != op {
                return Err(ServeError::new(
                    ServeCode::ReplayDivergence,
                    format!(
                        "derived op #{} diverged: journal has `{expected}`, replay derived `{op}`",
                        self.ops_matched
                    ),
                ));
            }
            self.ops_matched += 1; // already durable — do not re-append
            return Ok(());
        }
        self.journal.append(Kind::Derived, &op)?;
        self.ops_matched += 1;
        Ok(())
    }

    /// Drain the machine: run every pending job to its terminal state,
    /// journaling (or cross-checking) each derived op, then seal the
    /// batch with the report CRCs. Idempotent across restarts.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        loop {
            let more = self.sched.step();
            for op in self.sched.take_ops() {
                self.journal_op(op)?;
            }
            if !more {
                break;
            }
        }
        if self.ops_matched < self.journaled_ops.len() {
            return Err(ServeError::new(
                ServeCode::ReplayDivergence,
                format!(
                    "journal holds {} derived records but replay derived only {}",
                    self.journaled_ops.len(),
                    self.ops_matched
                ),
            ));
        }
        let report = self.sched.report();
        let json = report.to_json();
        let seal = format!(
            "report={:08x} trace={:08x}",
            crate::journal::crc32(json.as_bytes()),
            crate::journal::crc32(report.trace_json.as_bytes())
        );
        match &self.finish_seal {
            Some(prev) if *prev != seal => {
                return Err(ServeError::new(
                    ServeCode::ReplayDivergence,
                    format!("finish seal mismatch: journal has `{prev}`, replay derived `{seal}`"),
                ))
            }
            Some(_) => {}
            None => {
                self.journal.append(Kind::Finish, &seal)?;
                self.finish_seal = Some(seal);
            }
        }
        self.report_json = Some(json);
        self.report = Some(report);
        Ok(())
    }

    /// The drained batch report (call [`Daemon::drain`] first).
    pub fn report(&self) -> &BatchReport {
        self.report.as_ref().expect("drain() completes before report()")
    }

    /// The drained report's stable JSON.
    pub fn report_json(&self) -> &str {
        self.report_json.as_deref().expect("drain() completes before report_json()")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemStorage;
    use spmd_rt::ExecMode;

    const SCRIPT: &[&str] = &[
        "nodes=4",
        "job name=a workload=mm ranks=2 param:N=8",
        "job name=b workload=mm ranks=2 param:N=8 arrive=1e-4",
    ];

    fn complete(runner: &Runner, storage: &mut MemStorage) -> (String, String) {
        let (mut d, _) = Daemon::open(storage, runner).unwrap();
        let durable = d.inputs().len();
        for line in &SCRIPT[durable..] {
            d.submit(line).unwrap();
        }
        d.drain().unwrap();
        (d.report_json().to_string(), d.report().trace_json.clone())
    }

    #[test]
    fn a_fresh_run_journals_inputs_ops_and_a_seal() {
        let runner = Runner::new(ExecMode::Full);
        let mut s = MemStorage::default();
        let (json, _) = complete(&runner, &mut s);
        assert!(json.contains("\"done\": 2"), "{json}");
        let text = String::from_utf8(s.bytes.clone()).unwrap();
        assert_eq!(text.matches(" I ").count(), 3, "{text}");
        assert!(text.matches(" D ").count() >= 6, "{text}");
        assert_eq!(text.matches(" F ").count(), 1);
        assert_eq!(text.matches(" R ").count(), 0, "never crashed");
    }

    #[test]
    fn reopening_a_sealed_journal_replays_to_the_same_report() {
        let runner = Runner::new(ExecMode::Full);
        let mut s = MemStorage::default();
        let (json1, trace1) = complete(&runner, &mut s);
        let (mut d, rec) = Daemon::open(&mut s, &runner).unwrap();
        assert!(rec.finished);
        assert_eq!(rec.inputs, 3);
        d.drain().unwrap();
        assert_eq!(d.report_json(), json1);
        assert_eq!(d.report().trace_json, trace1);
    }

    #[test]
    fn replay_divergence_is_refused() {
        let runner = Runner::new(ExecMode::Full);
        let mut s = MemStorage::default();
        complete(&runner, &mut s);
        // Tamper with one derived record *consistently* (valid CRC, so
        // the journal loads) — replay must notice the history lie.
        let text = String::from_utf8(s.bytes.clone()).unwrap();
        let mut out = String::new();
        for line in text.lines() {
            if line.contains(" D ") && line.contains("complete a") {
                let (seq_s, rest) = {
                    let body = line.split_once(' ').unwrap().1;
                    let mut it = body.splitn(3, ' ');
                    (it.next().unwrap().to_string(), it.nth(1).unwrap().to_string())
                };
                let forged = rest.replace("status=done", "status=failed");
                out.push_str(&crate::journal::encode(
                    seq_s.parse().unwrap(),
                    Kind::Derived,
                    &forged,
                ));
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        s.bytes = out.into_bytes();
        let (mut d, _) = Daemon::open(&mut s, &runner).unwrap();
        let e = d.drain().unwrap_err();
        assert_eq!(e.code, ServeCode::ReplayDivergence);
        assert!(e.detail.contains("diverged"), "{e}");
    }

    #[test]
    fn unjournaled_submissions_are_lost_but_state_stays_consistent() {
        let runner = Runner::new(ExecMode::Full);
        // Kill exactly at the current journal end: the very next append
        // (the first submission) is lost in its entirety.
        let mut s =
            crate::journal::KillStorage::new(MemStorage::default(), Some(10)).unwrap();
        {
            let (mut d, _) = Daemon::open(&mut s, &runner).unwrap();
            let e = d.submit(SCRIPT[0]).unwrap_err();
            assert_eq!(e.detail, crate::journal::KILLED);
        }
        // Restart: the journal knows nothing; the client resubmits all.
        let (d, rec) = Daemon::open(&mut s, &runner).unwrap();
        assert_eq!(rec.inputs, 0);
        assert!(rec.torn_bytes > 0, "partial record was torn away");
        assert!(d.inputs().is_empty());
    }
}
