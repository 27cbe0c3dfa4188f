//! The kill/restart harness — and the proof of the headline property.
//!
//! A *session* is the client's view: feed a script of commands to a
//! daemon, drain, read the report. The harness runs sessions over a
//! [`KillStorage`] that murders the daemon at a seeded journal byte
//! offset, then keeps restarting (recovery + resubmission of
//! non-durable commands) until the batch completes.
//!
//! [`kill_matrix`] sweeps the kill point across **every** journal
//! offset (subsampled to a point budget) and asserts the recovered
//! report, human rendering and whole-cluster trace are byte-identical
//! to a baseline session that never died.

use crate::codes::ServeError;
use crate::daemon::Daemon;
use crate::journal::{KillStorage, MemStorage, Storage, KILLED};
use vpce_sched::Runner;

/// What a completed session produced.
#[derive(Debug, Clone)]
pub struct SessionResult {
    pub report_json: String,
    pub human: String,
    pub trace_json: String,
    /// Times the daemon was killed and restarted along the way.
    pub restarts: u32,
}

/// One daemon incarnation: open (recover), resubmit whatever the
/// journal does not already hold, drain, report.
fn attempt(
    runner: &Runner,
    storage: &mut dyn Storage,
    script: &[String],
) -> Result<SessionResult, ServeError> {
    let (mut daemon, _recovery) = Daemon::open(storage, runner)?;
    let durable = daemon.inputs().len();
    for line in &script[durable..] {
        daemon.submit(line)?;
    }
    daemon.drain()?;
    Ok(SessionResult {
        report_json: daemon.report_json().to_string(),
        human: daemon.report().render_human(),
        trace_json: daemon.report().trace_json.clone(),
        restarts: 0,
    })
}

/// Script text → the command lines a session submits (blank lines and
/// comments dropped, so journal prefixes line up with script indices).
pub fn script_lines(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

/// Run a session to completion over `storage`, restarting the daemon
/// every time it is killed. Non-kill errors propagate.
pub fn run_session(
    runner: &Runner,
    storage: &mut dyn Storage,
    script: &[String],
) -> Result<SessionResult, ServeError> {
    let mut restarts = 0u32;
    loop {
        match attempt(runner, storage, script) {
            Ok(mut res) => {
                res.restarts = restarts;
                return Ok(res);
            }
            Err(e) if e.detail == KILLED => restarts += 1,
            Err(e) => return Err(e),
        }
    }
}

/// The never-killed reference session. Returns the result and the
/// final journal bytes (whose length bounds the kill offsets).
pub fn baseline(runner: &Runner, script: &[String]) -> Result<(SessionResult, Vec<u8>), ServeError> {
    let mut storage = MemStorage::default();
    let res = run_session(runner, &mut storage, script)?;
    Ok((res, storage.bytes))
}

/// Outcome of a [`kill_matrix`] sweep.
#[derive(Debug, Clone)]
pub struct MatrixSummary {
    /// Baseline journal length — the space of possible kill offsets.
    pub journal_len: u64,
    /// Kill points exercised.
    pub points: usize,
    /// Total restarts across all points (>= points: every kill fires).
    pub restarts: u64,
    /// Offsets whose recovered output differed from the baseline
    /// (empty is the theorem).
    pub divergent: Vec<u64>,
}

/// Kill the daemon at (up to `max_points`, evenly spaced) journal byte
/// offsets; after each murder, restart until completion and compare
/// every output byte against the never-killed baseline.
pub fn kill_matrix(
    runner: &Runner,
    script: &[String],
    max_points: usize,
) -> Result<MatrixSummary, ServeError> {
    let (base, journal) = baseline(runner, script)?;
    let len = journal.len() as u64;
    let stride = (len as usize).div_ceil(max_points.max(1)).max(1) as u64;
    let mut summary = MatrixSummary {
        journal_len: len,
        points: 0,
        restarts: 0,
        divergent: Vec::new(),
    };
    let mut offset = 0;
    while offset < len {
        let mut storage = KillStorage::new(MemStorage::default(), Some(offset))?;
        let res = run_session(runner, &mut storage, script)?;
        summary.points += 1;
        summary.restarts += u64::from(res.restarts);
        let identical = res.report_json == base.report_json
            && res.human == base.human
            && res.trace_json == base.trace_json;
        if !identical {
            summary.divergent.push(offset);
        }
        offset += stride;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmd_rt::ExecMode;

    const SCRIPT: &str = "
        # a machine with contention, a preemption, a quota throttle and
        # a cancel
        nodes=4
        seed=2
        tenant name=acme share=2 quota=2
        tenant name=beta share=1
        job name=low tenant=beta workload=mm ranks=4 param:N=16
        job name=hi tenant=beta workload=mm ranks=4 param:N=8 prio=5 arrive=2e-5
        storm prefix=s count=3 tenant=acme workload=mm ranks=2 param:N=8 mean-gap=5e-5
        cancel name=s2 at=4e-5
    ";

    #[test]
    fn a_clean_session_produces_a_sealed_deterministic_report() {
        let runner = Runner::new(ExecMode::Full);
        let script = script_lines(SCRIPT);
        let (one, journal1) = baseline(&runner, &script).unwrap();
        let (two, journal2) = baseline(&runner, &script).unwrap();
        assert_eq!(one.report_json, two.report_json);
        assert_eq!(journal1, journal2, "whole journal is deterministic");
        assert_eq!(one.restarts, 0);
        assert!(one.report_json.contains("\"preemptions\": 1"), "{}", one.report_json);
        assert!(one.report_json.contains("\"tenant_usage_node_s\""));
    }

    #[test]
    fn kill_anywhere_restart_replays_to_identical_bytes() {
        let runner = Runner::new(ExecMode::Full);
        let script = script_lines(SCRIPT);
        let summary = kill_matrix(&runner, &script, 64).unwrap();
        assert!(summary.journal_len > 500, "script is non-trivial");
        assert!(summary.points >= 32, "swept {} points", summary.points);
        assert_eq!(summary.divergent, Vec::<u64>::new());
        assert!(
            summary.restarts >= summary.points as u64,
            "every kill point actually killed"
        );
    }
}
