//! # polaris-be — the MPI-2 postpass (§5)
//!
//! The paper's contribution: retargeting Polaris at the V-Bus
//! PC-cluster by lowering analysed sequential programs to master/slave
//! SPMD form with one-sided MPI-2 communication. The pass structure
//! follows Figure 6:
//!
//! 1. **MPI environment generation** (§5.1) — every array becomes a
//!    memory window; arrays touched by parallel regions are the
//!    remotely-accessed set.
//! 2. **AVPG generation** (§5.2) — the array-value-propagation graph
//!    assigns each (region, array) a `Valid` / `Propagate` / `Invalid`
//!    attribute; edges from `Valid` into `Invalid` let the collect be
//!    dropped, and scatter is *delayed* across `Propagate` nodes (a
//!    slave that already holds a fresh copy is not re-fed).
//! 3. **Work partitioning** (§5.3) — block scheduling for rectangular
//!    loops, cyclic for triangular ones.
//! 4. **Data scattering & collecting** (§5.4) — per-slave access
//!    regions derive from the splitted LMADs; `ReadOnly` regions are
//!    scattered, `WriteFirst` collected, `ReadWrite` both.
//! 5. **SPMDization** (§5.5) — barriers and fences bracket every
//!    parallel region.
//! 6. **Communication optimization** (§5.6) — regions are lowered at
//!    fine / middle / coarse granularity, with the overlap safety
//!    check forcing fine-grain collection when slaves' approximate
//!    regions collide.

#![forbid(unsafe_code)]

pub mod advisor;
pub mod avpg;
pub mod plan;
pub mod translate;

use lmad::Granularity;
use polaris_fe::analysis::{AnalyzedProgram, Region};
use spmd_rt::{Block, Schedule, SpmdProgram};

pub use advisor::{advise, SimulatedAdvice};
pub use avpg::{Avpg, NodeAttr};
pub use plan::{ElisionReport, PlanReport, PlanStep, RegionPlanInfo};

/// Backend configuration.
#[derive(Debug, Clone)]
pub struct BackendOptions {
    /// Number of MPI ranks the program will run on.
    pub nprocs: usize,
    /// §5.6 communication granularity ("for now, it is up to the user
    /// that selects the optimal granularity").
    pub granularity: Granularity,
    /// Enable the AVPG redundant-communication elimination (§5.2).
    /// Off = the naive scatter-everything/collect-everything scheme,
    /// used as the ablation baseline (A1).
    pub use_avpg: bool,
    /// Treat every array as live at program exit (the master's final
    /// copies are the program output). Disable only in ablation
    /// studies of the valid→invalid elision.
    pub outputs_live: bool,
    /// Force a schedule instead of the §5.3 block/cyclic heuristic.
    pub schedule_override: Option<Schedule>,
    /// Lower data scattering as slave-side `MPI_GET` (pull) instead of
    /// master-side `MPI_PUT` (push). One-sided communication makes the
    /// direction a free choice (§2.2); pull parallelises the host-side
    /// setup cost across the slaves. Ablation A5.
    pub pull_scatter: bool,
    /// Lower scalar reductions through `MPI_WIN_LOCK` critical
    /// sections (§3) instead of the collective reduce tree. Note:
    /// lock acquisition order is OS-scheduling dependent, so virtual
    /// *times* may vary slightly across runs in this mode (values
    /// stay correct; exact for integer/dyadic data).
    pub lock_reductions: bool,
    /// **Deliberately unsound**: skip the §5.6 overlap safety check
    /// that forces fine-grain collection when slaves' approximate
    /// collect regions collide. Overlapping middle/coarse collects are
    /// then emitted as-is, producing PUT/PUT races inside the collect
    /// epoch. Exists to manufacture racy plans for `vpce-rmacheck`
    /// validation (`vpcec --unsafe-collect`); never enable otherwise.
    pub unsafe_approx_collect: bool,
}

impl BackendOptions {
    /// Defaults: fine (exact) granularity, AVPG on, outputs live.
    pub fn new(nprocs: usize) -> Self {
        BackendOptions {
            nprocs,
            granularity: Granularity::Fine,
            use_avpg: true,
            outputs_live: true,
            schedule_override: None,
            pull_scatter: false,
            lock_reductions: false,
            unsafe_approx_collect: false,
        }
    }

    /// Builder-style granularity selection.
    pub fn granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Builder-style AVPG toggle.
    pub fn avpg(mut self, on: bool) -> Self {
        self.use_avpg = on;
        self
    }

    /// Builder-style schedule override.
    pub fn schedule(mut self, s: Schedule) -> Self {
        self.schedule_override = Some(s);
        self
    }

    /// Builder-style pull-scatter toggle.
    pub fn pull(mut self, on: bool) -> Self {
        self.pull_scatter = on;
        self
    }

    /// Builder-style lock-reduction toggle.
    pub fn lock_reductions(mut self, on: bool) -> Self {
        self.lock_reductions = on;
        self
    }

    /// Builder-style toggle for the deliberately unsound approximate
    /// collection (see [`BackendOptions::unsafe_approx_collect`]).
    pub fn unsafe_collect(mut self, on: bool) -> Self {
        self.unsafe_approx_collect = on;
        self
    }
}

/// The backend's output: the SPMD program plus planning diagnostics.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub program: SpmdProgram,
    pub avpg: Avpg,
    pub report: PlanReport,
}

/// Run the MPI-2 postpass.
pub fn compile_backend(analyzed: &AnalyzedProgram, opts: &BackendOptions) -> CompiledProgram {
    assert!(opts.nprocs >= 1, "need at least one rank");
    let avpg = avpg::build_avpg(analyzed);
    let mut planner = plan::Planner::new(analyzed, opts);
    let mut blocks = Vec::new();
    for (i, region) in analyzed.regions.iter().enumerate() {
        match region {
            Region::Seq(seq) => {
                planner.note_seq_region(seq);
                blocks.push(Block::MasterSeq(translate::translate_stmts(
                    &seq.stmts,
                    &analyzed.symbols,
                )));
            }
            Region::Parallel(pl) => {
                blocks.push(Block::Parallel(planner.plan_region(i, pl)));
            }
        }
    }
    let sequential = translate::translate_stmts(&analyzed.sequential_body(), &analyzed.symbols);
    let program = SpmdProgram {
        name: analyzed.name.clone(),
        nprocs: opts.nprocs,
        arrays: analyzed
            .symbols
            .arrays
            .iter()
            .map(|a| (a.name.clone(), a.len as usize))
            .collect(),
        scalars: analyzed
            .symbols
            .scalars
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.ty == polaris_fe::sema::ScalarType::Integer,
                )
            })
            .collect(),
        blocks,
        sequential,
    };
    let report = planner.into_report();
    CompiledProgram {
        program,
        avpg,
        report,
    }
}
