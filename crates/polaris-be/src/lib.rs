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
//!
//! The pass is two halves. [`Translated`] is what no grain changes:
//! every region's statements translated once, and the AVPG; each
//! parallel region's per-rank footprints depend on the ranks and the
//! schedule, not the grain. The other half is the §5.6 lowering of one
//! grain from them ([`Translated::lower`]). [`compile_backend`] builds
//! both and lowers one grain, moving what it built into the result;
//! the [`advise`]r builds them once and lowers all three grains.

#![forbid(unsafe_code)]

mod advisor;
mod avpg;
mod plan;
mod translate;

use std::borrow::Cow;

use lmad::Granularity;
use polaris_fe::analysis::{AnalyzedProgram, Region};
use spmd_rt::ir::{Expr, Instr};
use spmd_rt::{Block, Instrs, Schedule, SpmdProgram};

pub use advisor::{advise, SimulatedAdvice};
pub use avpg::{Avpg, NodeAttr};
pub use plan::{ElisionReport, PlanReport, PlanStep, RegionPlanInfo};

use plan::RegionFootprints;

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

/// The grain-independent half of the postpass: an analysed program
/// with every region's statements translated once (shared lists, so
/// each lowering of it points at the same instructions) and its AVPG.
/// It borrows the analysis, or owns it where it is kept for later
/// lowerings (the scheduler memoises one per program text).
#[derive(Debug)]
pub struct Translated<'a> {
    analyzed: Cow<'a, AnalyzedProgram>,
    /// Per region, in program order: a sequential section's statements
    /// or a parallel loop's body.
    code: Vec<Instrs>,
    /// The whole program as one sequential list.
    sequential: Instrs,
    avpg: Avpg,
}

impl<'a> Translated<'a> {
    /// Translate `analyzed` and build its AVPG (§5.2).
    pub fn new(analyzed: Cow<'a, AnalyzedProgram>) -> Self {
        let symbols = &analyzed.symbols;
        let code: Vec<Instrs> = analyzed
            .regions
            .iter()
            .map(|region| match region {
                Region::Seq(seq) => translate::translate_stmts(&seq.stmts, symbols).into(),
                Region::Parallel(pl) => translate::translate_stmts(&pl.body, symbols).into(),
            })
            .collect();
        // The sequential program from the translated regions: a
        // section's statements as they are, a parallel loop as the
        // `DO` it came from around its translated body.
        let mut sequential = Vec::new();
        for (region, code) in analyzed.regions.iter().zip(&code) {
            match region {
                Region::Seq(_) => sequential.extend_from_slice(code),
                Region::Parallel(pl) => sequential.push(Instr::Loop {
                    var: pl.var,
                    lo: Expr::IConst(pl.lo),
                    hi: Expr::IConst(pl.hi),
                    step: pl.step,
                    body: code.to_vec(),
                }),
            }
        }
        let sequential = sequential.into();
        let avpg = avpg::build_avpg(&analyzed);
        Translated { analyzed, code, sequential, avpg }
    }

    /// Every parallel region's per-rank footprints on `opts`' ranks and
    /// schedule, in program order — built as they are drawn.
    pub(crate) fn footprints<'s>(&'s self, opts: &'s BackendOptions) -> impl Iterator<Item = RegionFootprints> + 's {
        self.analyzed.regions.iter().filter_map(move |region| match region {
            Region::Parallel(pl) => Some(RegionFootprints::new(pl, opts)),
            Region::Seq(_) => None,
        })
    }

    /// Lower at `opts`' grain, each parallel region planned from its
    /// footprints, built here and moved into the plan.
    pub fn lower(&self, opts: &BackendOptions) -> (SpmdProgram, PlanReport) {
        self.lower_from(opts, self.footprints(opts).map(Cow::Owned))
    }

    /// Lower at `opts`' grain from `footprints` — one per parallel
    /// region in program order, built on `opts`' ranks and schedule:
    /// borrowed where other grains plan from them too, owned where this
    /// lowering is their last use.
    pub(crate) fn lower_from<'f>(
        &self,
        opts: &BackendOptions,
        footprints: impl IntoIterator<Item = Cow<'f, RegionFootprints>>,
    ) -> (SpmdProgram, PlanReport) {
        assert!(opts.nprocs >= 1, "need at least one rank");
        let analyzed = &*self.analyzed;
        let mut planner = plan::Planner::new(analyzed, opts);
        let mut footprints = footprints.into_iter();
        let mut blocks = Vec::with_capacity(analyzed.regions.len());
        for (i, (region, code)) in analyzed.regions.iter().zip(&self.code).enumerate() {
            match region {
                Region::Seq(seq) => {
                    planner.note_seq_region(seq);
                    blocks.push(Block::MasterSeq(code.clone()));
                }
                Region::Parallel(pl) => {
                    let fps = footprints.next().expect("footprints for every parallel region");
                    blocks.push(Block::Parallel(planner.plan_region(i, pl, code.clone(), fps)));
                }
            }
        }
        let program = SpmdProgram {
            name: analyzed.name.clone(),
            nprocs: opts.nprocs,
            arrays: analyzed.symbols.arrays.iter().map(|a| (a.name.clone(), a.len as usize)).collect(),
            scalars: analyzed
                .symbols
                .scalars
                .iter()
                .map(|s| (s.name.clone(), s.ty == polaris_fe::sema::ScalarType::Integer))
                .collect(),
            blocks,
            sequential: self.sequential.clone(),
        };
        (program, planner.into_report())
    }
}

/// Run the MPI-2 postpass at one grain: [`Translated::lower`], with the
/// AVPG moved into the result.
pub fn compile_backend(analyzed: &AnalyzedProgram, opts: &BackendOptions) -> CompiledProgram {
    let shared = Translated::new(Cow::Borrowed(analyzed));
    let (program, report) = shared.lower(opts);
    CompiledProgram { program, avpg: shared.avpg, report }
}
