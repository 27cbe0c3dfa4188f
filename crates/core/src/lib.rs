//! # vpce — the V-Bus PC-cluster parallel programming environment
//!
//! The top of the reproduction of *"A Parallel Programming Environment
//! for a V-Bus based PC-cluster"* (Lim, Paek, Park, Hoeflinger;
//! IEEE CLUSTER 2001): compile a sequential Fortran-77-subset program
//! with the Polaris-style front-end, lower it through the MPI-2
//! postpass to master/slave SPMD form with one-sided communication,
//! and execute it on the simulated V-Bus cluster.
//!
//! ```
//! use vpce::{compile, run_experiment, BackendOptions, ClusterConfig, ExecMode};
//!
//! let source = r"
//!       PROGRAM SCALE
//!       PARAMETER (N = 64)
//!       REAL A(N), B(N)
//!       INTEGER I
//!       DO I = 1, N
//!         A(I) = REAL(I)
//!       ENDDO
//!       DO I = 1, N
//!         B(I) = 2.0 * A(I)
//!       ENDDO
//!       END
//! ";
//! let cluster = ClusterConfig::paper_4node();
//! let exp = run_experiment(
//!     source,
//!     &[],
//!     &cluster,
//!     &BackendOptions::new(4),
//!     ExecMode::Full,
//! )
//! .unwrap();
//! // The parallel run computed the same values the sequential one did…
//! assert_eq!(exp.parallel.arrays, exp.sequential.arrays);
//! // …and its virtual execution time yields the speedup.
//! assert!(exp.speedup() > 0.0);
//! ```
//!
//! The heavy lifting lives in the sub-crates, all re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | [`vbus_sim`] | V-Bus/SKWP mesh interconnect model (§2.1) |
//! | [`cluster_sim`] | PC node model: CPU cycle costs, NIC DMA/PIO (§2) |
//! | [`mpi2`] | the MPI-2 library: windows, PUT/GET, fence, collectives (§2.2) |
//! | [`lmad`] | LMAD algebra and summary sets (§4) |
//! | [`polaris_fe`] | front-end: parsing + parallelism detection (§3) |
//! | [`polaris_be`] | the MPI-2 postpass (§5) |
//! | [`spmd_rt`] | SPMD IR + interpreter over the simulated cluster (§3) |

#![forbid(unsafe_code)]

pub mod cli;
pub mod report;

pub use cluster_sim::{ClusterConfig, CpuModel, NodeConfig, OpCounts};
pub use polaris_be::{advise, SimulatedAdvice, Translated};
pub use report::{describe_backend, describe_comm, describe_frontend};
pub use lmad::Granularity;
pub use mpi2::{Mpi, RunOutcome, Universe};
pub use polaris_be::{compile_backend, Avpg, BackendOptions, CompiledProgram, NodeAttr};
pub use polaris_fe::{compile as compile_frontend, FrontError};
pub use rmacheck::{lint, LintOptions, LintReport};
pub use spmd_rt::{
    execute, execute_sequential, execute_traced, ExecMode, RunReport, Schedule, SeqReport,
    SpmdProgram,
};
pub use vbus_sim::{NetConfig, NetSim};
pub use vpce_trace::{TraceReport, TraceSummary, Tracer};

/// Compile F77-mini source all the way to an executable SPMD program.
///
/// `params` overrides `PARAMETER` constants (problem-size sweeps).
pub fn compile(
    source: &str,
    params: &[(&str, i64)],
    opts: &BackendOptions,
) -> Result<CompiledProgram, FrontError> {
    let analyzed = polaris_fe::compile(source, params)?;
    Ok(polaris_be::compile_backend(&analyzed, opts))
}

/// [`advise`] from source: the winner and the simulated communication
/// time per granularity in [`Granularity::ALL`] order.
///
/// # Panics
/// Panics with the error's text when a simulation fails.
pub fn advise_granularity(
    source: &str,
    params: &[(&str, i64)],
    cluster: &ClusterConfig,
    base: &BackendOptions,
) -> Result<(Granularity, Vec<(Granularity, f64)>), FrontError> {
    let analyzed = polaris_fe::compile(source, params)?;
    let shared = Translated::new(std::borrow::Cow::Borrowed(&analyzed));
    let advice = advise(&shared, cluster, base).unwrap_or_else(|e| panic!("{e}"));
    Ok((advice.winner, advice.measured))
}

/// A complete experiment: the compiled program plus its parallel and
/// sequential executions.
#[derive(Debug)]
pub struct Experiment {
    pub compiled: CompiledProgram,
    pub parallel: RunReport,
    pub sequential: SeqReport,
}

impl Experiment {
    /// Table-1 speedup: sequential time over parallel time.
    pub fn speedup(&self) -> f64 {
        self.sequential.elapsed / self.parallel.elapsed
    }

    /// Table-2 communication time (critical path).
    pub fn comm_time(&self) -> f64 {
        self.parallel.comm_time
    }
}

/// Compile and run `source` on `cluster`, plus the sequential
/// baseline on one of its CPUs.
pub fn run_experiment(
    source: &str,
    params: &[(&str, i64)],
    cluster: &ClusterConfig,
    opts: &BackendOptions,
    mode: ExecMode,
) -> Result<Experiment, FrontError> {
    run_experiment_on(mpi2::workers::cores(), source, params, cluster, opts, mode)
}

/// [`run_experiment`] on a host of `cores` cores, which decides where
/// the sequential baseline runs (`spmd_rt::with_reference_on`) and no
/// bit.
fn run_experiment_on(
    cores: usize,
    source: &str,
    params: &[(&str, i64)],
    cluster: &ClusterConfig,
    opts: &BackendOptions,
    mode: ExecMode,
) -> Result<Experiment, FrontError> {
    assert_eq!(
        opts.nprocs,
        cluster.num_nodes(),
        "backend nprocs must match the cluster"
    );
    let compiled = compile(source, params, opts)?;
    let (parallel, sequential) =
        spmd_rt::with_reference_on(cores, &compiled.program, &cluster.node.cpu, mode, || {
            spmd_rt::try_execute(&compiled.program, cluster, mode, spmd_rt::FaultSpec::off())
        })
        .unwrap_or_else(|e| panic!("{e}"));
    Ok(Experiment {
        compiled,
        parallel,
        sequential,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOT: &str = r"
      PROGRAM DOT
      PARAMETER (N = 64)
      REAL A(N), B(N)
      REAL S
      INTEGER I
      DO I = 1, N
        A(I) = REAL(I)
        B(I) = 2.0
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I) * B(I)
      ENDDO
      END
";

    #[test]
    fn dot_product_reduction_end_to_end() {
        let cluster = ClusterConfig::paper_4node();
        let exp = run_experiment(DOT, &[], &cluster, &BackendOptions::new(4), ExecMode::Full)
            .unwrap();
        // S = sum 2*i for i in 1..=64 = 64*65 = 4160.
        let s_slot = exp
            .compiled
            .program
            .scalars
            .iter()
            .position(|(n, _)| n == "S")
            .unwrap();
        assert_eq!(exp.parallel.scalars[s_slot].as_real(), 4160.0);
        assert_eq!(exp.sequential.scalars[s_slot].as_real(), 4160.0);
    }

    #[test]
    fn parameter_override_reaches_the_runtime() {
        let cluster = ClusterConfig::paper_4node();
        let exp = run_experiment(
            DOT,
            &[("N", 128)],
            &cluster,
            &BackendOptions::new(4),
            ExecMode::Full,
        )
        .unwrap();
        assert_eq!(exp.compiled.program.arrays[0].1, 128);
        let s_slot = exp
            .compiled
            .program
            .scalars
            .iter()
            .position(|(n, _)| n == "S")
            .unwrap();
        assert_eq!(exp.parallel.scalars[s_slot].as_real(), (128.0 * 129.0));
    }

    #[test]
    fn the_baseline_is_the_same_after_or_beside_the_parallel_run() {
        let cluster = ClusterConfig::paper_4node();
        let opts = BackendOptions::new(4).granularity(Granularity::Coarse);
        let src = vpce_workloads::mm::SOURCE;
        let [after, beside] = [1, 2].map(|cores| {
            run_experiment_on(cores, src, &[("N", 144)], &cluster, &opts, ExecMode::Full).unwrap()
        });
        assert!(spmd_rt::same_bits(&after.parallel.arrays, &beside.parallel.arrays));
        assert!(spmd_rt::same_bits(&after.sequential.arrays, &beside.sequential.arrays));
        assert!(spmd_rt::same_bits(&after.parallel.arrays, &after.sequential.arrays));
        assert_eq!(after.parallel.elapsed.to_bits(), beside.parallel.elapsed.to_bits());
        assert_eq!(after.sequential.elapsed.to_bits(), beside.sequential.elapsed.to_bits());
    }

    /// The advisor against the plain definition — plan and price every
    /// grain, keep the first cheapest: the same winner, times, program,
    /// plan report and run, from exactly one pricing run per distinct
    /// lowered program.
    #[test]
    fn advisor_equals_pricing_every_grain_with_one_run_per_distinct_program() {
        let saxpy = include_str!("../../../examples/fortran/saxpy.f");
        let torus3d = vpce_machine::MachineSpec::builtin("torus3d").unwrap();
        // (name, source, size, pricing runs under block / cyclic): MM's
        // and SWIM's mapping dimension is unit-stride, so middle grain
        // lowers as fine does; CFFT2INIT's stride-2 tables make three
        // programs in block bands, while cyclic ones make the §5.6
        // overlap check collect fine at every grain (and nothing is
        // scattered); SAXPY's contiguous bands are one program, and in
        // cyclic ones middle falls back to fine but coarse scatters a
        // bounding region.
        let cases = [
            ("MM", vpce_workloads::mm::SOURCE, ("N", 32), [2, 2]),
            ("SWIM", vpce_workloads::swim::SOURCE, ("N", 32), [2, 2]),
            ("CFFT2INIT", vpce_workloads::cfft::SOURCE, ("M", 5), [3, 1]),
            ("SAXPY", saxpy, ("N", 96), [1, 2]),
        ];
        for (name, source, size, runs) in cases {
            let analyzed = polaris_fe::compile(source, &[size]).unwrap();
            for nodes in [2, 4, 16] {
                let paper = ClusterConfig::paper_n(nodes);
                let torus = torus3d.lower(nodes).unwrap();
                let scheds = [(Schedule::Block, runs[0]), (Schedule::Cyclic, runs[1])];
                for ((machine, cluster), (sched, runs)) in [("paper", &paper), ("torus3d", &torus)]
                    .into_iter()
                    .flat_map(|m| scheds.map(|s| (m, s)))
                {
                    let case = format!("{name} nodes={nodes} {machine} {sched:?}");
                    let base = BackendOptions::new(nodes).schedule(sched);
                    let advice = advise(&Translated::new(std::borrow::Cow::Borrowed(&analyzed)), cluster, &base).unwrap();
                    let every: Vec<_> = Granularity::ALL
                        .map(|g| {
                            let compiled = compile_backend(&analyzed, &base.clone().granularity(g));
                            let rep = spmd_rt::try_execute(
                                &compiled.program,
                                cluster,
                                ExecMode::Analytic,
                                spmd_rt::FaultSpec::off(),
                            )
                            .unwrap();
                            (g, compiled, rep)
                        })
                        .into();
                    let first_cheapest = every.iter().fold(&every[0], |best, c| {
                        if c.2.comm_time.total_cmp(&best.2.comm_time).is_lt() {
                            c
                        } else {
                            best
                        }
                    });
                    let (winner, compiled, report) = first_cheapest;
                    assert_eq!(advice.winner, *winner, "{case}");
                    let advised: Vec<_> =
                        advice.measured.iter().map(|(g, t)| (*g, t.to_bits())).collect();
                    let measured: Vec<_> =
                        every.iter().map(|(g, _, r)| (*g, r.comm_time.to_bits())).collect();
                    assert_eq!(advised, measured, "{case}");
                    assert_eq!(advice.compiled.program, compiled.program, "{case}");
                    let plan = |c: &CompiledProgram| format!("{:?}", c.report);
                    assert_eq!(plan(&advice.compiled), plan(compiled), "{case}");
                    assert_eq!(advice.report.elapsed.to_bits(), report.elapsed.to_bits(), "{case}");
                    let comm = advice.report.comm_time.to_bits();
                    assert_eq!(comm, report.comm_time.to_bits(), "{case}");
                    assert_eq!(advice.report.net, report.net, "{case}");
                    assert_eq!(advice.priced, runs, "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match the cluster")]
    fn nprocs_mismatch_caught() {
        let cluster = ClusterConfig::paper_4node();
        let _ = run_experiment(DOT, &[], &cluster, &BackendOptions::new(2), ExecMode::Full);
    }
}
