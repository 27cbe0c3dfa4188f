//! Granularity advice (§5.6).
//!
//! "For now, it is up to the user that selects the optimal granularity
//! to minimize the communication time. The profiling tools recently
//! provided in Polaris would be useful to guide the user when such
//! decision should be made."
//!
//! This module is that guide, and the only one: it lowers the program
//! at every granularity and *simulates* each lowering on the cluster it
//! will run on (an `Analytic`, fault-free, untraced run), keeping the
//! grain with the least communication time. Both front doors call it:
//! `vpcec` without `--grain`, and batch / serve admission for a job
//! without `grain=`.

use cluster_sim::ClusterConfig;
use lmad::Granularity;
use polaris_fe::analysis::AnalyzedProgram;
use spmd_rt::{ExecMode, FaultSpec, RunReport, SpmdProgram, VpceError};

use crate::{compile_backend, BackendOptions, CompiledProgram};

/// What the advisor found — and what it built on the way, so that a
/// caller who goes on to run the winner need not plan and simulate it
/// a second time.
#[derive(Debug)]
pub struct SimulatedAdvice {
    /// The granularity with the least simulated communication time
    /// (the first such in [`Granularity::ALL`] order).
    pub winner: Granularity,
    /// Simulated communication time per granularity, in
    /// [`Granularity::ALL`] order.
    pub measured: Vec<(Granularity, f64)>,
    /// The winner's lowered program.
    pub compiled: CompiledProgram,
    /// The winner's run: `ExecMode::Analytic`, no faults, no tracer —
    /// a pure function of program and cluster, so it *is* the report
    /// of any later run under the same three conditions.
    pub report: RunReport,
    /// Pricing runs made: one per distinct lowered program, so fewer
    /// than three wherever two grains lower alike (§5.6 middle grain
    /// *is* fine grain when the mapping dimension is unit-stride).
    pub priced: usize,
}

/// Pick the cheapest §5.6 granularity for an analysed program by
/// simulating each on `cluster`. A pricing run is a pure function of
/// program and cluster, so a grain that lowers to the program of an
/// earlier grain takes that grain's time instead of a run of its own.
/// A simulation that fails — the program runs past a window's end, or
/// divides by zero — is the error, typed.
pub fn advise(
    analyzed: &AnalyzedProgram,
    cluster: &ClusterConfig,
    base: &BackendOptions,
) -> Result<SimulatedAdvice, VpceError> {
    let mut measured = Vec::with_capacity(3);
    let mut best: Option<(Granularity, CompiledProgram, RunReport)> = None;
    // The distinct programs priced so far other than the best's.
    let mut others: Vec<(SpmdProgram, f64)> = Vec::new();
    let mut priced = 0;
    for g in Granularity::ALL {
        let compiled = compile_backend(analyzed, &base.clone().granularity(g));
        let seen = best
            .iter()
            .map(|(_, c, rep)| (&c.program, rep.comm_time))
            .chain(others.iter().map(|(program, t)| (program, *t)))
            .find(|(program, _)| **program == compiled.program);
        // A repeated program ties the grain it repeats, which came
        // first, so it cannot win.
        if let Some((_, t)) = seen {
            measured.push((g, t));
            continue;
        }
        let rep =
            spmd_rt::try_execute(&compiled.program, cluster, ExecMode::Analytic, FaultSpec::off())?;
        priced += 1;
        measured.push((g, rep.comm_time));
        // Strictly cheaper only: ties keep the earlier granularity.
        if best.as_ref().is_none_or(|(_, _, b)| rep.comm_time.total_cmp(&b.comm_time).is_lt()) {
            if let Some((_, c, rep)) = best.replace((g, compiled, rep)) {
                others.push((c.program, rep.comm_time));
            }
        } else {
            others.push((compiled.program, rep.comm_time));
        }
    }
    let (winner, compiled, report) = best.expect("three candidates");
    Ok(SimulatedAdvice { winner, measured, compiled, report, priced })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's advisor row (`mm.f --nodes 16 --param N=160
    /// --advise`): fine and middle lower MM alike, so two pricing runs.
    #[test]
    fn mm_advise_prices_two_programs() {
        let analyzed = polaris_fe::compile(include_str!("../../../examples/fortran/mm.f"), &[("N", 160)])
            .expect("mm.f compiles");
        let advice = advise(&analyzed, &ClusterConfig::paper_n(16), &BackendOptions::new(16)).expect("prices");
        assert_eq!(advice.priced, 2);
    }
}
