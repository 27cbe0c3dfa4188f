//! Region planning: work partitioning (§5.3), data scattering and
//! collecting from splitted LMADs (§5.4), AVPG-driven communication
//! elision (§5.2), and the fine/middle/coarse granularity lowering
//! with its overlap safety check (§5.6).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use lmad::{ArrayId, CoverIndex, Granularity, Lmad, Normal, OpForm, SummarySet, TransferPlan, COVER_LIMIT};
use polaris_fe::analysis::{ParallelLoop, Region, SeqRegion};
use polaris_fe::analysis::{AnalyzedProgram, ReductionOp};
use spmd_rt::ir::{CommOp, CommPlan, Instrs, ParRegion, RedOp, Reduction, Schedule};

use crate::BackendOptions;

/// What happened to one region's communication.
#[derive(Debug, Clone, Default)]
pub struct RegionPlanInfo {
    pub line: usize,
    pub sched_cyclic: bool,
    pub scatter_msgs: usize,
    pub collect_msgs: usize,
    pub scatter_elems: u64,
    pub collect_elems: u64,
    pub strided_msgs: usize,
    /// Arrays whose collection was forced to fine grain by the §5.6
    /// overlap check.
    pub collect_fallback_fine: Vec<ArrayId>,
    /// Extra scatter transfers added to keep approximate collection
    /// coherent.
    pub coverage_scatters: usize,
    /// Per-rank compute-phase *write* footprints, `(array, region)`
    /// pairs — what each rank's local stores touch while the window
    /// epoch is open. Consumed by the static RMA checker.
    pub rank_writes: Vec<Vec<(usize, Lmad)>>,
    /// Per-rank compute-phase *read* footprints (scatter-sourced
    /// regions each rank consumes).
    pub rank_reads: Vec<Vec<(usize, Lmad)>>,
}

/// One entry in the program-order execution timeline: what the lowered
/// program does between synchronisation points, at plan granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// A master-only sequential section with the array ids it reads
    /// and writes (whole-array granularity).
    Seq {
        reads: Vec<usize>,
        writes: Vec<usize>,
    },
    /// A parallel region; the payload indexes into
    /// [`PlanReport::regions`].
    Par(usize),
}

/// Communication the AVPG optimization removed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElisionReport {
    pub scatters_elided: usize,
    pub collects_elided: usize,
    pub elided_elems: u64,
}

/// Full planning diagnostics for a compiled program.
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    pub regions: Vec<RegionPlanInfo>,
    pub elisions: ElisionReport,
    /// Arrays that are remotely accessed (need windows per §5.1) —
    /// every array touched by some parallel region.
    pub windowed_arrays: Vec<ArrayId>,
    /// Program-order timeline of sequential and parallel steps,
    /// enabling whole-program reasoning (AVPG elision soundness) in
    /// the static RMA checker.
    pub steps: Vec<PlanStep>,
}

/// Per-rank freshness: regions of the master copy this rank's private
/// copy provably mirrors, kept indexed for the elision and coherence
/// proofs and grown in place.
type Freshness = Vec<HashMap<ArrayId, CoverIndex>>;

pub(crate) struct Planner<'a> {
    analyzed: &'a AnalyzedProgram,
    opts: &'a BackendOptions,
    fresh: Freshness,
    report: PlanReport,
}

impl<'a> Planner<'a> {
    pub(crate) fn new(analyzed: &'a AnalyzedProgram, opts: &'a BackendOptions) -> Self {
        let mut windowed: Vec<ArrayId> = Vec::new();
        for region in &analyzed.regions {
            if let Region::Parallel(p) = region {
                for a in p.analysis.reads.iter().chain(&p.analysis.writes) {
                    if !windowed.contains(a) {
                        windowed.push(*a);
                    }
                }
            }
        }
        windowed.sort();
        Planner {
            analyzed,
            opts,
            fresh: vec![HashMap::new(); opts.nprocs],
            report: PlanReport {
                windowed_arrays: windowed,
                ..PlanReport::default()
            },
        }
    }

    /// A sequential (master-only) region invalidates every slave copy
    /// of the arrays it writes.
    pub(crate) fn note_seq_region(&mut self, seq: &SeqRegion) {
        for a in &seq.writes {
            for rank_fresh in &mut self.fresh {
                rank_fresh.remove(a);
            }
        }
        self.report.steps.push(PlanStep::Seq {
            reads: seq.reads.iter().map(|a| a.0).collect(),
            writes: seq.writes.iter().map(|a| a.0).collect(),
        });
    }

    /// Plan one parallel region (region index `idx` in program order)
    /// around its translated `body`, from its per-rank `footprints`:
    /// borrowed when another grain plans from them too, moved when this
    /// lowering is the last that does — what the report and the
    /// freshness keep of them is then moved, not copied.
    pub(crate) fn plan_region(
        &mut self,
        idx: usize,
        pl: &ParallelLoop,
        body: Instrs,
        mut footprints: Cow<'_, RegionFootprints>,
    ) -> ParRegion {
        let p = self.opts.nprocs;
        assert_eq!(footprints.per_rank.len(), p, "footprints of another partition");
        let sched = footprints.sched;
        let g = self.opts.granularity;
        let mut info = RegionPlanInfo {
            line: pl.line,
            sched_cyclic: sched == Schedule::Cyclic,
            ..RegionPlanInfo::default()
        };
        let mut scatter_plan: Vec<Vec<CommOp>> = vec![Vec::new(); p];
        let mut collect_plan: Vec<Vec<CommOp>> = vec![Vec::new(); p];

        for (k, &a) in footprints.arrays.iter().enumerate() {
            let of_array: Vec<&Footprints> = footprints.per_rank.iter().map(|fps| &fps[k]).collect();
            let written = pl.analysis.writes.contains(&a);
            self.plan_array(
                a,
                written,
                idx,
                g,
                &of_array,
                &mut scatter_plan,
                &mut collect_plan,
                &mut info,
            );
        }

        // ---- freshness update ----
        // (Pure-read regions already recorded their scattered data
        // inside plan_array; written arrays reset to exactly what the
        // rank wrote — collected back under the overlap check.)
        for r in 0..p {
            for a in &pl.analysis.writes {
                let k = footprints.arrays.binary_search(a).expect("a written array is an array of the region");
                let written = match &mut footprints {
                    Cow::Owned(f) => std::mem::take(&mut f.per_rank[r][k].collect),
                    Cow::Borrowed(f) => f.per_rank[r][k].collect.clone(),
                };
                self.fresh[r].insert(*a, CoverIndex::of_normals(written));
            }
        }
        // Every rank's compute-phase footprints, for the static RMA
        // checker (local accesses share the collect epoch with the
        // slaves' collect PUTs).
        (info.rank_writes, info.rank_reads) = match footprints {
            Cow::Owned(f) => (f.rank_writes, f.rank_reads),
            Cow::Borrowed(f) => (f.rank_writes.clone(), f.rank_reads.clone()),
        };

        let scatter = CommPlan { per_rank: scatter_plan };
        let collect = CommPlan { per_rank: collect_plan };
        info.strided_msgs = scatter.strided_messages() + collect.strided_messages();
        info.scatter_msgs = scatter.num_messages();
        info.collect_msgs = collect.num_messages();
        info.scatter_elems = scatter.total_elems();
        info.collect_elems = collect.total_elems();
        self.report.steps.push(PlanStep::Par(self.report.regions.len()));
        self.report.regions.push(info);

        ParRegion {
            var: pl.var,
            lo: pl.lo,
            step: pl.step,
            trips: pl.trips,
            sched,
            body,
            scatter,
            collect,
            pull_scatter: self.opts.pull_scatter,
            lock_reductions: self.opts.lock_reductions,
            scalars_in: pl.analysis.shared_scalars.iter().copied().collect(),
            private_scalars: pl.analysis.private_scalars.iter().copied().collect(),
            reductions: pl
                .analysis
                .reductions
                .iter()
                .map(|r| Reduction {
                    scalar: r.var,
                    op: match r.op {
                        ReductionOp::Sum => RedOp::Sum,
                        ReductionOp::Prod => RedOp::Prod,
                        ReductionOp::Min => RedOp::Min,
                        ReductionOp::Max => RedOp::Max,
                    },
                    identity: match r.op {
                        ReductionOp::Sum => 0.0,
                        ReductionOp::Prod => 1.0,
                        ReductionOp::Min => f64::INFINITY,
                        ReductionOp::Max => f64::NEG_INFINITY,
                    },
                })
                .collect(),
            line: pl.line,
        }
    }

    /// Plan the communication of one array across all ranks;
    /// `footprints[r]` is rank `r`'s, and `written` says whether the
    /// region writes the array.
    #[allow(clippy::too_many_arguments)]
    fn plan_array(
        &mut self,
        a: ArrayId,
        written: bool,
        region_idx: usize,
        g: Granularity,
        footprints: &[&Footprints],
        scatter_plan: &mut [Vec<CommOp>],
        collect_plan: &mut [Vec<CommOp>],
        info: &mut RegionPlanInfo,
    ) {
        let p = self.opts.nprocs;

        // ---- collection granularity: §5.6 overlap safety check ----
        // Each slave's collect lowered at an approximate grain `g`,
        // which the collect plan takes over unless the check falls back
        // to fine grain. Rank 0's would-be collected regions are its
        // exact writes (they reach the master copy directly).
        // `unsafe_approx_collect` skips the safety check entirely —
        // overlapping approximate collects are emitted as-is (the
        // deliberately-racy ablation for the RMA checker).
        let mut collects: Vec<Vec<TransferPlan>> = vec![Vec::new(); p];
        if g != Granularity::Fine {
            for r in 1..p {
                collects[r] = lower_collect(&footprints[r].collect, g);
            }
        }
        let mut collect_g = g;
        if g != Granularity::Fine && !self.opts.unsafe_approx_collect && collects_meet(&footprints[0].collect, &collects) {
            collect_g = Granularity::Fine;
            info.collect_fallback_fine.push(a);
        }

        // Collect: may be elided entirely when the AVPG proves the
        // value dead (Valid -> Invalid edge, §5.2) — a property of the
        // array, not of the rank.
        let collect_dead = self.opts.use_avpg && self.value_dead_after(region_idx, a);

        // ---- per-rank plans ----
        for r in 1..p {
            let collect_exact = &footprints[r].collect;
            let scatter_exact = &footprints[r].scatter;
            // Figure 9(d): at coarse grain "one big approximate
            // region … is transfered to each remote processor" — all
            // of a rank's regions merge into a single bounding run.
            let merged_scatter: Vec<Normal>;
            let scatter_regions = if g == Granularity::Coarse {
                merged_scatter = merge_bounding(scatter_exact).into_iter().collect();
                &merged_scatter
            } else {
                scatter_exact
            };

            let mut planned_collect: Vec<CommOp> = Vec::new();
            if !collect_dead {
                let descriptors = if collect_g != Granularity::Fine {
                    std::mem::take(&mut collects[r])
                } else {
                    lower_collect(collect_exact, collect_g)
                };
                planned_collect.extend(descriptors.into_iter().map(|descriptor| CommOp {
                    array: a.0,
                    descriptor,
                }));
            } else if !collect_exact.is_empty() {
                self.report.elisions.collects_elided += 1;
                self.report.elisions.elided_elems += collect_exact
                    .iter()
                    .map(|n| n.distinct_elements(COVER_LIMIT))
                    .sum::<u64>();
            }

            // Scatter: elide regions the slave already holds fresh
            // (delayed communication across Propagate nodes, §5.2).
            let fresh = self.fresh[r].get(&a);
            let fresh_cover = fresh.filter(|_| self.opts.use_avpg);
            let mut planned_scatter: Vec<CommOp> = Vec::new();
            // Regions elided because the rank holds them fresh: with
            // the scattered ops, what the rank holds after its scatter.
            let mut held: Vec<Normal> = Vec::new();
            for n in scatter_regions {
                if fresh_cover.is_some_and(|fresh| fresh.covered(n, COVER_LIMIT)) {
                    self.report.elisions.scatters_elided += 1;
                    self.report.elisions.elided_elems += n.distinct_elements(COVER_LIMIT);
                    held.push(n.clone());
                    continue;
                }
                planned_scatter.push(CommOp {
                    array: a.0,
                    descriptor: TransferPlan::lower_normal(n.view(), g),
                });
            }
            let scattered = planned_scatter.len();

            // Coherence for approximate collection: every collected
            // message must hold only elements this rank wrote or
            // mirrors. Anything else must be scattered first. Each op
            // is asked once, of the union of its messages; only an op
            // not wholly covered walks them.
            if collect_g != Granularity::Fine {
                let mut sources = fresh.cloned().unwrap_or_default();
                hold(&mut sources, collect_exact.iter().chain(&held), &planned_scatter);
                for op in &planned_collect {
                    let wholly = sources.covered(&Normal::of_plan(&op.descriptor), COVER_LIMIT);
                    #[cfg(test)]
                    let wholly = wholly && !tests::per_message();
                    if wholly {
                        continue;
                    }
                    // A message scattered first can hold a later one
                    // of the op only when two of its messages meet;
                    // otherwise the scatter is held once, after the walk.
                    let meet = op.descriptor.messages_meet();
                    let mut uncovered = Vec::new();
                    for t in op.descriptor.transfers() {
                        let message = Normal::of_transfer(&t);
                        if !sources.covered(&message, COVER_LIMIT) {
                            if meet {
                                sources.push(message);
                            }
                            uncovered.push(t);
                        }
                    }
                    // Scatter the approximate regions themselves: the
                    // whole op as one when none of it was covered.
                    info.coverage_scatters += uncovered.len();
                    let scatter: Vec<CommOp> = if uncovered.len() == op.descriptor.num_messages() {
                        vec![op.clone()]
                    } else {
                        uncovered.into_iter().map(|t| CommOp { array: a.0, descriptor: t.into() }).collect()
                    };
                    if !meet {
                        hold(&mut sources, &[], &scatter);
                    }
                    planned_scatter.extend(scatter);
                }
            }

            // Record freshness gained by scattering (read-only arrays
            // keep it; a written array's is replaced after the region).
            if !written && (!held.is_empty() || scattered > 0) {
                hold(self.fresh[r].entry(a).or_default(), &held, &planned_scatter[..scattered]);
            }

            scatter_plan[r].extend(planned_scatter);
            collect_plan[r].extend(planned_collect);
        }
    }

    /// Is the master's copy of `a` after region `idx` never read again
    /// before being fully overwritten (or the program ends with dead
    /// outputs allowed)?
    fn value_dead_after(&self, idx: usize, a: ArrayId) -> bool {
        let len = self.analyzed.symbols.arrays[a.0].len;
        for region in &self.analyzed.regions[idx + 1..] {
            if region.reads().contains(&a) {
                return false;
            }
            if region.writes().contains(&a) {
                // Full overwrite kills the old value if the write
                // covers the whole array.
                if let Region::Parallel(p) = region {
                    let mut writes: Vec<Lmad> = Vec::new();
                    for e in p.analysis.summary.of(a) {
                        if e.class.needs_collect() {
                            writes.push(e.lmad.clone());
                        }
                    }
                    let whole = Normal::of(&Lmad::contiguous(0, len as u64));
                    if CoverIndex::new(&writes).covered(&whole, COVER_LIMIT) {
                        return true;
                    }
                }
                // Partial or unanalysable overwrite: stay conservative.
                return false;
            }
        }
        !self.opts.outputs_live
    }

    /// Spent planner → diagnostics.
    pub(crate) fn into_report(self) -> PlanReport {
        self.report
    }
}

/// One parallel region's per-rank footprints on one partition — the
/// §5.3 schedule and the splitted LMADs of §5.4: what every grain plans
/// the region from, whatever it lowers them to. The advisor builds them
/// once for its three lowerings.
#[derive(Clone)]
pub(crate) struct RegionFootprints {
    sched: Schedule,
    /// The arrays the region touches, sorted.
    arrays: Vec<ArrayId>,
    /// `per_rank[r][k]`: rank `r`'s footprints of `arrays[k]`.
    per_rank: Vec<Vec<Footprints>>,
    /// [`RegionPlanInfo::rank_writes`].
    rank_writes: Vec<Vec<(usize, Lmad)>>,
    /// [`RegionPlanInfo::rank_reads`].
    rank_reads: Vec<Vec<(usize, Lmad)>>,
}

impl RegionFootprints {
    /// The footprints of `pl` on `opts`' ranks under its schedule
    /// (`opts`' override, else §5.3's pick), each normalised once.
    /// Multiple textual references with the same footprint collapse to
    /// one access: as transfers, a repeat would double the wire traffic
    /// and race against itself inside the collect epoch.
    pub(crate) fn new(pl: &ParallelLoop, opts: &BackendOptions) -> Self {
        let p = opts.nprocs;
        let sched = opts.schedule_override.unwrap_or(if pl.analysis.triangular {
            Schedule::Cyclic
        } else {
            Schedule::Block
        });
        let mut arrays: Vec<ArrayId> = pl.analysis.reads.iter().chain(&pl.analysis.writes).copied().collect();
        arrays.sort();
        arrays.dedup();
        let mut out = RegionFootprints {
            sched,
            per_rank: Vec::with_capacity(p),
            rank_writes: Vec::with_capacity(p),
            rank_reads: Vec::with_capacity(p),
            arrays,
        };
        for r in 0..p {
            // Rank `r`'s exact regions (splitted-LMAD scheme, §5.4).
            let (start, every, count) = sched.assignment(pl.trips, r, p);
            let mut summary = SummarySet::new();
            if count > 0 {
                for rf in &pl.analysis.refs {
                    let lmad = if every == 1 {
                        rf.footprint(start, count)
                    } else {
                        rf.footprint_cyclic(start, every, count)
                    };
                    if rf.is_write {
                        summary.add_write(rf.array, lmad);
                    } else {
                        summary.add_read(rf.array, lmad);
                    }
                }
            }
            let mut writes = Vec::new();
            let mut reads = Vec::new();
            let per_array = out
                .arrays
                .iter()
                .map(|&a| Footprints {
                    collect: dedup_regions(summary.collect_regions(a), |lm| writes.push((a.0, lm.clone()))),
                    scatter: dedup_regions(summary.scatter_regions(a), |lm| reads.push((a.0, lm.clone()))),
                })
                .collect();
            out.rank_writes.push(writes);
            out.rank_reads.push(reads);
            out.per_rank.push(per_array);
        }
        out
    }
}

/// One rank's footprints of one array in one region, each normalised
/// once.
#[derive(Clone)]
struct Footprints {
    /// What the rank's stores touch (collected back).
    collect: Vec<Normal>,
    /// What its loads read (scattered to it).
    scatter: Vec<Normal>,
}

/// The normal forms of `regions`, dropping each whose normal form
/// already appeared (first seen kept, order preserved); `kept` sees
/// every raw region that stays.
fn dedup_regions(regions: Vec<&Lmad>, mut kept: impl FnMut(&Lmad)) -> Vec<Normal> {
    let normals: Vec<Normal> = regions.iter().map(|lm| Normal::of(lm)).collect();
    let mut seen = HashSet::new();
    let first: Vec<bool> = normals
        .iter()
        .map(|n| normals.len() < 2 || seen.insert(n.form()))
        .collect();
    normals
        .into_iter()
        .zip(first)
        .zip(regions)
        .filter_map(|((n, first), lm)| {
            first.then(|| {
                kept(lm);
                n
            })
        })
        .collect()
}

/// The transfers collecting `regions` at grain `g` — at coarse grain
/// one bounding run for all of them (Figure 9(d): "one big approximate
/// region … is transfered to each remote processor").
fn lower_collect(regions: &[Normal], g: Granularity) -> Vec<TransferPlan> {
    let merged: Vec<Normal>;
    let regions = if g == Granularity::Coarse {
        merged = merge_bounding(regions).into_iter().collect();
        &merged
    } else {
        regions
    };
    regions.iter().map(|n| TransferPlan::lower_normal(n.view(), g)).collect()
}

/// The single bounding contiguous region covering a region list
/// (`None` when the list is empty), from the raw extents.
fn merge_bounding(regions: &[Normal]) -> Option<Normal> {
    let (mut lo, mut hi) = regions.first()?.extent();
    for r in &regions[1..] {
        let (l, h) = r.extent();
        lo = lo.min(l);
        hi = hi.max(h);
    }
    Some(Normal::of(&Lmad::contiguous(lo, (hi - lo + 1) as u64)))
}

/// §5.6: does a region rank 0 writes or a collect op of one slave
/// (`collects[r]`) meet one of another rank? `lmad`'s check, one
/// question an op — or, in this crate's tests, message by message,
/// when a test asks for the reference plan
/// (`tests::per_message_reference`).
fn collects_meet(exact: &[Normal], collects: &[Vec<TransferPlan>]) -> bool {
    #[cfg(test)]
    if tests::per_message() {
        return tests::collects_meet_per_message(exact, collects);
    }
    let ops: Vec<(usize, &TransferPlan, Normal)> =
        (0..collects.len()).flat_map(|r| collects[r].iter().map(move |op| (r, op, Normal::of_plan(op)))).collect();
    let exact = exact.iter().map(|n| (0, OpForm::new(n.view(), None)));
    let ops = ops.iter().map(|(r, op, union)| (*r, OpForm::new(union.view(), Some(*op))));
    lmad::cross_rank_overlap(&exact.chain(ops).collect::<Vec<_>>())
}

/// Add to `index` the `regions` and the messages of `ops`: one member
/// a region and one an op — or, in this crate's tests' reference plan,
/// one a message.
fn hold<'a>(index: &mut CoverIndex, regions: impl IntoIterator<Item = &'a Normal>, ops: &[CommOp]) {
    index.extend(regions.into_iter().cloned());
    #[cfg(test)]
    if tests::per_message() {
        let messages = ops.iter().flat_map(|op| op.descriptor.transfers());
        return index.extend(messages.map(|t| Normal::of_transfer(&t)));
    }
    index.extend_ops(ops.iter().map(|op| &op.descriptor));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmad::Dim;
    use spmd_rt::ir::{Expr, Instr};
    use std::cell::Cell;

    thread_local! {
        /// Plan message by message on this thread
        /// ([`per_message_reference`]).
        static PER_MESSAGE: Cell<bool> = const { Cell::new(false) };
    }

    /// Is this thread planning the reference plan?
    pub(super) fn per_message() -> bool {
        PER_MESSAGE.with(Cell::get)
    }

    /// The §5.6 check pair by pair, as it was before it asked ops:
    /// every cross-rank pair of a region rank 0 writes or a collect
    /// message whose raw extents meet, one exact test each
    /// ([`lmad::Form::overlaps`] is what `Lmad::overlaps` asks).
    pub(super) fn collects_meet_per_message(exact: &[Normal], collects: &[Vec<TransferPlan>]) -> bool {
        let messages = collects.iter().enumerate().flat_map(|(r, plans)| {
            plans.iter().flat_map(TransferPlan::transfers).map(move |t| (r, Normal::of_transfer(&t)))
        });
        let all: Vec<(usize, Normal)> = exact.iter().map(|n| (0, n.clone())).chain(messages).collect();
        pairwise(&all)
    }

    /// Does a footprint meet one of another rank, each pair whose raw
    /// extents meet asked [`lmad::Form::overlaps`]?
    fn pairwise(all: &[(usize, Normal)]) -> bool {
        let extents: Vec<(i64, i64)> = all.iter().map(|(_, n)| n.extent()).collect();
        lmad::sweep::any_overlapping_pair(&extents, |i, j| {
            let ((ri, x), (rj, y)) = (&all[i], &all[j]);
            ri != rj && x.view().overlaps(y.view())
        })
    }

    /// `compile_backend` asking the planner's three questions — the
    /// §5.6 check, freshness and coherence — message by message: each
    /// collect message a footprint of the check, each scattered
    /// message a member of the rank's freshness, and each collect
    /// message asked for coverage.
    fn per_message_reference(analyzed: &AnalyzedProgram, opts: &BackendOptions) -> crate::CompiledProgram {
        PER_MESSAGE.with(|on| on.set(true));
        let out = crate::compile_backend(analyzed, opts);
        PER_MESSAGE.with(|on| on.set(false));
        out
    }

    /// The planner's coverage question, at the planner's budget.
    fn covered(needed: &Lmad, have: &[Lmad]) -> bool {
        CoverIndex::new(have).covered(&Normal::of(needed), COVER_LIMIT)
    }

    /// The §5.6 check over per-rank lists of raw regions.
    fn overlap_of(per_rank: &[Vec<Lmad>]) -> bool {
        let normals: Vec<(usize, Normal)> =
            per_rank.iter().enumerate().flat_map(|(r, rs)| rs.iter().map(move |l| (r, Normal::of(l)))).collect();
        let tagged: Vec<(usize, OpForm)> = normals.iter().map(|(r, n)| (*r, OpForm::new(n.view(), None))).collect();
        let verdict = lmad::cross_rank_overlap(&tagged);
        assert_eq!(verdict, pairwise(&normals));
        verdict
    }

    #[test]
    fn covered_by_union_of_interleaved_writes() {
        // Evens + odds cover the contiguous run (the CFFT2INIT case).
        let needed = Lmad::contiguous(0, 16);
        let evens = Lmad::strided(0, 2, 8);
        let odds = Lmad::strided(1, 2, 8);
        assert!(covered(&needed, &[evens.clone(), odds]));
        assert!(!covered(&needed, &[evens]));
    }

    #[test]
    fn cross_rank_overlap_ignores_same_rank() {
        let r0 = vec![Lmad::contiguous(0, 8), Lmad::contiguous(4, 8)]; // self-overlap
        let r1 = vec![Lmad::contiguous(16, 8)];
        assert!(!overlap_of(&[r0.clone(), r1]));
        let r2 = vec![Lmad::contiguous(6, 4)];
        assert!(overlap_of(&[r0, r2]));
    }

    /// The region a wire transfer covers is the normal form of
    /// `Lmad::strided(offset, stride, count)`.
    #[test]
    fn transfer_lmad_roundtrip() {
        let t = lmad::RegionTransfer {
            offset: 5,
            stride: 3,
            count: 4,
        };
        let l = Normal::of_transfer(&t);
        assert_eq!(l.form().offsets(100).unwrap(), vec![5, 8, 11, 14]);
        let t2 = lmad::RegionTransfer {
            offset: 5,
            stride: 1,
            count: 4,
        };
        assert_eq!(*Normal::of_transfer(&t2).form(), Lmad::contiguous(5, 4));
        for (offset, stride, count) in [(7, 2, 1), (-3, 1, 9), (0, 1 << 40, 3), (1, u64::MAX, 2)] {
            let t = lmad::RegionTransfer { offset, stride, count };
            assert_eq!(Normal::of_transfer(&t), Normal::of(&Lmad::strided(offset, stride as i64, count)), "{t:?}");
        }
    }

    #[test]
    fn covered_structural_fast_path() {
        // A big contiguous region covered by one containing region —
        // no enumeration needed.
        let needed = Lmad::contiguous(10, 1 << 24);
        let have = vec![Lmad::contiguous(0, 1 << 25)];
        assert!(covered(&needed, &have));
    }

    #[test]
    fn covered_rejects_gappy_superset() {
        let needed = Lmad::contiguous(0, 10);
        let have = vec![Lmad::new(0, vec![Dim::new(1, 5), Dim::new(6, 2)])];
        assert!(!covered(&needed, &have));
    }

    /// The wire counts of MM's plans at 16 ranks: per region, scatter
    /// then collect, `(messages, elements, strided messages)`. Fine and
    /// middle grain lower MM alike (every mapping is unit-stride). The
    /// plan stores one op per footprint, so its op count does not grow
    /// with N while its message count does.
    #[test]
    fn mm_plan_counts_are_pinned() {
        type Counts = (usize, u64, usize);
        let pinned: [(i64, [(Counts, Counts); 2]); 3] = [
            (64, [((0, 0, 0), (1920, 7680, 0)), ((15, 61440, 0), (960, 3840, 0))]),
            (128, [((0, 0, 0), (3840, 30720, 0)), ((15, 245760, 0), (1920, 15360, 0))]),
            (256, [((0, 0, 0), (7680, 122880, 0)), ((15, 983040, 0), (3840, 61440, 0))]),
        ];
        let counts = |c: &CommPlan| (c.num_messages(), c.total_elems(), c.strided_messages());
        let ops = |c: &CommPlan| c.per_rank.iter().map(Vec::len).sum::<usize>();
        let mut stored = Vec::new();
        for (n, want) in pinned {
            let analyzed = polaris_fe::compile(include_str!("../../../examples/fortran/mm.f"), &[("N", n)])
                .expect("mm.f compiles");
            for g in [Granularity::Fine, Granularity::Middle] {
                let compiled = crate::compile_backend(&analyzed, &BackendOptions::new(16).granularity(g));
                let got: Vec<_> = compiled.program.regions().map(|r| (counts(&r.scatter), counts(&r.collect))).collect();
                assert_eq!(got, want, "N={n} {g:?}");
                stored.push(compiled.program.regions().map(|r| (ops(&r.scatter), ops(&r.collect))).collect::<Vec<_>>());
            }
        }
        assert!(stored.iter().all(|s| *s == stored[0]), "{stored:?}");
        assert_eq!(stored[0], vec![(0, 30), (15, 15)]);
    }

    /// A store over a cube at N = 1025 on two ranks: rank 1's band of
    /// `I` is one message per `(J, K)` column piece, 1 050 625 of them —
    /// counted, not listed (nothing here walks them), in one op. Coarse
    /// grain falls back to fine: the bounding runs of the two bands
    /// interleave.
    #[test]
    fn a_million_message_plan_is_one_op() {
        let analyzed = polaris_fe::compile(include_str!("../../../examples/fortran/cube.f"), &[("N", 1025)])
            .expect("cube.f compiles");
        for g in [Granularity::Fine, Granularity::Coarse] {
            let compiled = crate::compile_backend(&analyzed, &BackendOptions::new(2).granularity(g));
            let region = compiled.program.regions().next().expect("one parallel loop");
            assert_eq!(region.collect.num_messages(), 1025 * 1025, "{g:?}");
            assert_eq!(region.collect.total_elems(), 1025 * 1025 * 512, "{g:?}");
            assert_eq!(region.collect.per_rank.iter().map(Vec::len).sum::<usize>(), 1, "{g:?}");
            assert_eq!(region.scatter.num_messages(), 0, "{g:?}");
            let fell_back = !compiled.report.regions[0].collect_fallback_fine.is_empty();
            assert_eq!(fell_back, g == Granularity::Coarse);
        }
    }

    /// A stride-2 store over a matrix: the CFFT2INIT shape, in columns.
    const HALF: &str = "      PROGRAM HALF\n      PARAMETER (N = 64)\n      REAL X(2*N+2,N)\n      INTEGER I, J\n      \
                        DO J = 1, N\n        DO I = 1, N\n          X(2*I,J) = 1.0\n        ENDDO\n      ENDDO\n      END\n";

    /// A stride-2 store (the CFFT2INIT shape) at middle grain: every
    /// bounding run of rank 1's collect holds odd elements it neither
    /// wrote nor mirrors, so coherence scatters each run first — the
    /// collect op itself, stored once, not one op per message.
    #[test]
    fn an_uncovered_collect_is_scattered_as_one_op() {
        let analyzed = polaris_fe::compile(HALF, &[]).expect("compiles");
        let compiled = crate::compile_backend(&analyzed, &BackendOptions::new(2).granularity(Granularity::Middle));
        let region = compiled.program.regions().next().expect("one parallel loop");
        assert_eq!(region.collect.num_messages(), 32);
        assert_eq!(region.scatter, region.collect);
        assert_eq!(region.scatter.per_rank[1].len(), 1);
        assert_eq!(compiled.report.regions[0].coverage_scatters, 32);
    }

    /// Two regions over `X`: the first reads its odd rows in columns
    /// `1..=N/2`, the second writes its even rows in every column.
    const PART: &str = "      PROGRAM PART\n      PARAMETER (N = 16)\n      REAL X(2*N+2,N), Y(N,N)\n      INTEGER I, J\n      \
                        DO J = 1, N/2\n        DO I = 1, N\n          Y(I,J) = X(2*I+1,J)\n        ENDDO\n      ENDDO\n      \
                        DO J = 1, N\n        DO I = 1, N\n          X(2*I,J) = 1.0\n        ENDDO\n      ENDDO\n      END\n";

    /// A collect op partly covered, the one case coherence walks its
    /// messages for: on 2 ranks at middle grain, cyclically, rank 1's
    /// collect of `X` in the second region is one op of 8 column runs,
    /// and the 4 columns it was scattered in the first region hold the
    /// odd rows between its even ones fresh. The other 4 are scattered
    /// first, one op a message. In blocks, rank 1's columns of the two
    /// regions are apart, and the whole op is scattered as one.
    #[test]
    fn a_partly_covered_collect_scatters_its_uncovered_messages() {
        let analyzed = polaris_fe::compile(PART, &[]).expect("compiles");
        for (sched, ops, messages, scattered) in [(Schedule::Cyclic, 4, 1, 4), (Schedule::Block, 1, 8, 8)] {
            let opts = BackendOptions::new(2).granularity(Granularity::Middle).schedule(sched);
            let compiled = crate::compile_backend(&analyzed, &opts);
            let region = compiled.program.regions().nth(1).expect("two parallel loops");
            let collect = &region.collect.per_rank[1];
            assert_eq!(collect.len(), 1, "{sched:?}");
            assert_eq!(collect[0].descriptor.num_messages(), 8, "{sched:?}");
            let scatter = &region.scatter.per_rank[1];
            assert_eq!(scatter.len(), ops, "{sched:?}");
            assert!(scatter.iter().all(|op| op.descriptor.num_messages() == messages), "{sched:?}");
            assert_eq!(compiled.report.regions[1].coverage_scatters, scattered, "{sched:?}");
        }
    }

    /// The planner asks ops what the reference asks messages, and
    /// plans the same: program, fallbacks, coverage scatters and
    /// elisions are equal on every example and benchmark program — the
    /// partly covered collect of [`PART`] and the uncovered ones of
    /// [`HALF`] included — at 2, 3, 4 and 16
    /// ranks, every grain, block and cyclic, with and without the AVPG.
    #[test]
    fn plans_equal_the_per_message_reference() {
        let (mut fallbacks, mut scatters, mut elided) = (0, 0, 0);
        for (name, source, sizes) in programs() {
            for &n in sizes {
                let params: Vec<(&str, i64)> = if n > 0 { vec![("N", n)] } else { Vec::new() };
                let analyzed = polaris_fe::compile(source, &params).expect("program compiles");
                for ranks in [2, 3, 4, 16] {
                    for g in Granularity::ALL {
                        for sched in [Schedule::Block, Schedule::Cyclic] {
                            for avpg in [true, false] {
                                let opts = BackendOptions::new(ranks).granularity(g).schedule(sched).avpg(avpg);
                                let (got, want) = (crate::compile_backend(&analyzed, &opts), per_message_reference(&analyzed, &opts));
                                let case = format!("{name} N={n} on {ranks} ranks, {opts:?}");
                                assert_eq!(got.program, want.program, "{case}");
                                assert_eq!(got.report.elisions, want.report.elisions, "{case}");
                                for (a, b) in got.report.regions.iter().zip(&want.report.regions) {
                                    assert_eq!(a.collect_fallback_fine, b.collect_fallback_fine, "{case}");
                                    assert_eq!(a.coverage_scatters, b.coverage_scatters, "{case}");
                                    fallbacks += a.collect_fallback_fine.len();
                                    scatters += a.coverage_scatters;
                                }
                                elided += got.report.elisions.scatters_elided;
                            }
                        }
                    }
                }
            }
        }
        assert!(fallbacks > 100 && scatters > 100 && elided > 100, "{fallbacks} fallbacks, {scatters} coverage scatters, {elided} elided scatters");
    }

    /// Every example and benchmark program — the partly covered collect
    /// of [`PART`] and the uncovered ones of [`HALF`] included — with
    /// the sizes the planner's tests lower it at (`0`: as written).
    fn programs() -> [(&'static str, &'static str, &'static [i64]); 12] {
        use vpce_workloads::{cfft, irregular, mm, swim, swim_full};
        [
            ("mm", mm::SOURCE, &[16, 48]),
            ("swim", swim::SOURCE, &[16, 33]),
            ("swim_full", swim_full::SOURCE, &[16]),
            ("cfft", cfft::SOURCE, &[0]),
            ("irregular", irregular::SOURCE, &[32]),
            ("saxpy", include_str!("../../../examples/fortran/saxpy.f"), &[40]),
            ("racy", include_str!("../../../examples/fortran/racy.f"), &[0]),
            ("deadlock", include_str!("../../../examples/fortran/deadlock.f"), &[0]),
            ("alias", include_str!("../../../examples/fortran/alias.f"), &[8, 12]),
            ("cube", include_str!("../../../examples/fortran/cube.f"), &[8, 20]),
            ("part", PART, &[0]),
            ("half", HALF, &[8, 24]),
        ]
    }

    /// The top-level statement lists of a lowered program.
    fn lists(program: &spmd_rt::SpmdProgram) -> Vec<&Instrs> {
        let blocks = program.blocks.iter().map(|b| match b {
            spmd_rt::Block::MasterSeq(code) => code,
            spmd_rt::Block::Parallel(region) => &region.body,
        });
        blocks.chain([&program.sequential]).collect()
    }

    /// `program.sequential` is its blocks in order: a master section's
    /// statements as they are, a parallel region as one `DO` over its
    /// iteration space whose body equals the region's.
    fn assert_sequential_wraps_regions(program: &spmd_rt::SpmdProgram, case: &str) {
        let mut rest = &program.sequential[..];
        for block in &program.blocks {
            match block {
                spmd_rt::Block::MasterSeq(code) => {
                    assert_eq!(&rest[..code.len()], &code[..], "{case}");
                    rest = &rest[code.len()..];
                }
                spmd_rt::Block::Parallel(region) => {
                    let Some((Instr::Loop { var, lo, step, body, .. }, tail)) = rest.split_first() else {
                        panic!("{case}: no loop for a parallel region");
                    };
                    assert_eq!((*var, lo, *step), (region.var, &Expr::IConst(region.lo), region.step), "{case}");
                    assert_eq!(&body[..], &region.body[..], "{case}");
                    rest = tail;
                }
            }
        }
        assert!(rest.is_empty(), "{case}: statements outside every block");
    }

    /// Lowering every grain from one shared half — one translation, one
    /// set of footprints borrowed by two grains and moved into the
    /// third — plans what a fresh `compile_backend` per grain plans,
    /// program and report, on every example and benchmark program at
    /// 1, 2, 3, 4 and 16 ranks, block and cyclic, with and without the
    /// AVPG; the sequential program wraps each parallel region's body
    /// in its loop; and the advisor's winner points at the statements
    /// every grain's lowering shares.
    #[test]
    fn grains_lowered_from_one_shared_half_equal_fresh_compiles() {
        let mut shared_lists = 0;
        for (name, source, sizes) in programs() {
            for &n in sizes {
                let params: Vec<(&str, i64)> = if n > 0 { vec![("N", n)] } else { Vec::new() };
                let analyzed = polaris_fe::compile(source, &params).expect("program compiles");
                let shared = crate::Translated::new(Cow::Borrowed(&analyzed));
                for ranks in [1, 2, 3, 4, 16] {
                    for sched in [Schedule::Block, Schedule::Cyclic] {
                        for avpg in [true, false] {
                            let base = BackendOptions::new(ranks).schedule(sched).avpg(avpg);
                            let mut footprints: Vec<RegionFootprints> = shared.footprints(&base).collect();
                            let mut lowered = Vec::new();
                            for g in Granularity::ALL {
                                let opts = base.clone().granularity(g);
                                let (program, report) = if g == Granularity::Coarse {
                                    shared.lower_from(&opts, std::mem::take(&mut footprints).into_iter().map(Cow::Owned))
                                } else {
                                    shared.lower_from(&opts, footprints.iter().map(Cow::Borrowed))
                                };
                                let fresh = crate::compile_backend(&analyzed, &opts);
                                let case = format!("{name} N={n} on {ranks} ranks, {opts:?}");
                                assert_eq!(program, fresh.program, "{case}");
                                assert_eq!(format!("{report:?}"), format!("{:?}", fresh.report), "{case}");
                                assert_sequential_wraps_regions(&program, &case);
                                lowered.push(program);
                            }
                            let cluster = cluster_sim::ClusterConfig::paper_n(ranks);
                            let advice = crate::advise(&shared, &cluster, &base).expect("prices");
                            let winner = lists(&advice.compiled.program);
                            for program in &lowered {
                                for (a, b) in lists(program).into_iter().zip(&winner) {
                                    assert!(Instrs::ptr_eq(a, b), "{name} N={n} on {ranks} ranks: a list copied");
                                    shared_lists += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(shared_lists > 1000, "{shared_lists} shared lists");
    }

    /// MM at 16 ranks, N=160 — the advisor's middle and coarse plans of
    /// the `mm_advise` benchmark: the run sweep plans what the pairwise
    /// check planned (fallbacks and programs), and in debug builds the
    /// work is pinned: the §5.6 check makes at most 1 % of the
    /// reference's 7 155 pair tests, and each footprint is normalised a
    /// bounded number of times per region.
    #[test]
    fn mm_plans_equal_the_pairwise_reference_with_pinned_work() {
        let analyzed = polaris_fe::compile(include_str!("../../../examples/fortran/mm.f"), &[("N", 160)])
            .expect("mm.f compiles");
        for g in [Granularity::Middle, Granularity::Coarse] {
            let opts = BackendOptions::new(16).granularity(g);
            #[cfg(debug_assertions)]
            let before = lmad::work::read();
            let swept = crate::compile_backend(&analyzed, &opts);
            #[cfg(debug_assertions)]
            let (mid, reference) = (lmad::work::read(), per_message_reference(&analyzed, &opts));
            #[cfg(not(debug_assertions))]
            let reference = per_message_reference(&analyzed, &opts);
            #[cfg(debug_assertions)]
            {
                let after = lmad::work::read();
                let (normalised, pair_tests) = (mid.0 - before.0, mid.1 - before.1);
                let reference_tests = after.1 - mid.1;
                // Every footprint of every rank, reference by reference.
                let footprints: u64 = analyzed
                    .regions
                    .iter()
                    .filter_map(|r| match r {
                        Region::Parallel(pl) => Some(pl.analysis.refs.len() as u64 * 16),
                        Region::Seq(_) => None,
                    })
                    .sum();
                eprintln!(
                    "{g:?}: {pair_tests} pair tests (reference {reference_tests}), \
                     {normalised} normalisations for {footprints} footprints"
                );
                if g == Granularity::Middle {
                    // The reference's §5.6 check alone: rank 0's band
                    // against the other ranks' 160 column transfers,
                    // three arrays.
                    assert!(reference_tests >= pair_tests + 7_155, "{reference_tests}");
                }
                assert!(pair_tests <= 72, "{pair_tests} exact pair tests");
                assert!(normalised <= 3 * footprints, "{normalised} normalisations");
            }
            let fallbacks = |c: &crate::CompiledProgram| -> Vec<Vec<ArrayId>> {
                c.report.regions.iter().map(|r| r.collect_fallback_fine.clone()).collect()
            };
            assert_eq!(fallbacks(&swept), fallbacks(&reference), "{g:?}");
            assert_eq!(swept.program, reference.program, "{g:?}");
        }
    }
}
