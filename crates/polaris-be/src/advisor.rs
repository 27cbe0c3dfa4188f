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
//! without `grain=`. What no grain changes is built once: the three
//! lowerings share one [`Translated`] and one set of per-rank
//! footprints.

use std::borrow::Cow;

use cluster_sim::ClusterConfig;
use lmad::Granularity;
use spmd_rt::{ExecMode, FaultSpec, RunReport, SpmdProgram, VpceError};

use crate::plan::RegionFootprints;
use crate::{BackendOptions, CompiledProgram, PlanReport, Translated};

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

/// Pick the cheapest §5.6 granularity for a translated program by
/// simulating each on `cluster`. Every grain is lowered from one set of
/// per-rank footprints on `base`'s ranks and schedule: the earlier
/// grains borrow it and the last takes it. A pricing run is a pure
/// function of program and cluster, so a grain that lowers to the
/// program of an earlier grain takes that grain's time instead of a
/// run of its own ("the same program" is `==`, which does not walk a
/// statement list the two share). A simulation that fails — the
/// program runs past a window's end, or divides by zero — is the
/// error, typed.
pub fn advise(
    shared: &Translated<'_>,
    cluster: &ClusterConfig,
    base: &BackendOptions,
) -> Result<SimulatedAdvice, VpceError> {
    let mut measured = Vec::with_capacity(3);
    let mut best: Option<(Granularity, (SpmdProgram, PlanReport), RunReport)> = None;
    // The distinct programs priced so far other than the best's.
    let mut others: Vec<(SpmdProgram, f64)> = Vec::new();
    let mut priced = 0;
    let mut footprints: Vec<RegionFootprints> = shared.footprints(base).collect();
    for g in Granularity::ALL {
        let opts = base.clone().granularity(g);
        let lowered = if Some(&g) == Granularity::ALL.last() {
            shared.lower_from(&opts, std::mem::take(&mut footprints).into_iter().map(Cow::Owned))
        } else {
            shared.lower_from(&opts, footprints.iter().map(Cow::Borrowed))
        };
        let seen = best
            .iter()
            .map(|(_, (program, _), rep)| (program, rep.comm_time))
            .chain(others.iter().map(|(program, t)| (program, *t)))
            .find(|(program, _)| **program == lowered.0);
        // A repeated program ties the grain it repeats, which came
        // first, so it cannot win.
        if let Some((_, t)) = seen {
            measured.push((g, t));
            continue;
        }
        let rep = spmd_rt::try_execute(&lowered.0, cluster, ExecMode::Analytic, FaultSpec::off())?;
        priced += 1;
        measured.push((g, rep.comm_time));
        // Strictly cheaper only: ties keep the earlier granularity.
        if best.as_ref().is_none_or(|(_, _, b)| rep.comm_time.total_cmp(&b.comm_time).is_lt()) {
            if let Some((_, (program, _), rep)) = best.replace((g, lowered, rep)) {
                others.push((program, rep.comm_time));
            }
        } else {
            others.push((lowered.0, rep.comm_time));
        }
    }
    let (winner, (program, plan), report) = best.expect("three candidates");
    let compiled = CompiledProgram { program, avpg: shared.avpg.clone(), report: plan };
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
        let shared = Translated::new(Cow::Borrowed(&analyzed));
        let advice = advise(&shared, &ClusterConfig::paper_n(16), &BackendOptions::new(16)).expect("prices");
        assert_eq!(advice.priced, 2);
    }

    /// The same advice's planning work, in normalisations
    /// (`lmad::work`, debug builds): the three grains plan from one set
    /// of per-rank footprints, so one advice normalises them once where
    /// three `compile_backend`s normalise them three times.
    #[cfg(debug_assertions)]
    #[test]
    fn mm_advise_normalises_its_footprints_once() {
        let analyzed = polaris_fe::compile(include_str!("../../../examples/fortran/mm.f"), &[("N", 160)])
            .expect("mm.f compiles");
        let base = BackendOptions::new(16);
        let normalised = || lmad::work::read().0;
        let start = normalised();
        for g in Granularity::ALL {
            crate::compile_backend(&analyzed, &base.clone().granularity(g));
        }
        let three = normalised() - start;
        let shared = Translated::new(Cow::Borrowed(&analyzed));
        let start = normalised();
        let footprints = shared.footprints(&base).count() as u64;
        let once = normalised() - start;
        let start = normalised();
        advise(&shared, &ClusterConfig::paper_n(16), &base).expect("prices");
        let advised = normalised() - start;
        eprintln!("{footprints} footprint sets: {once} normalisations; three compiles {three}, one advice {advised}");
        assert_eq!(advised, three - 2 * once);
        assert_eq!((once, three, advised), (160, 555, 235));
    }
}
