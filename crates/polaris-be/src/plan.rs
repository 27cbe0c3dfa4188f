//! Region planning: work partitioning (§5.3), data scattering and
//! collecting from splitted LMADs (§5.4), AVPG-driven communication
//! elision (§5.2), and the fine/middle/coarse granularity lowering
//! with its overlap safety check (§5.6).

use std::collections::{HashMap, HashSet};

use lmad::{
    ArrayId, CoverIndex, Form, Granularity, Lmad, Normal, RegionTransfer, SummarySet,
    TransferPlan, COVER_LIMIT,
};
use polaris_fe::analysis::{ParallelLoop, Region, SeqRegion};
use polaris_fe::analysis::{AnalyzedProgram, ReductionOp};
use spmd_rt::ir::{CommOp, CommPlan, ParRegion, RedOp, Reduction, Schedule};

use crate::{translate, BackendOptions};

/// Message-count guard for transfer lowering.
const PLAN_LIMIT: u64 = 1 << 20;

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

pub struct Planner<'a> {
    analyzed: &'a AnalyzedProgram,
    opts: &'a BackendOptions,
    fresh: Freshness,
    report: PlanReport,
}

impl<'a> Planner<'a> {
    pub fn new(analyzed: &'a AnalyzedProgram, opts: &'a BackendOptions) -> Self {
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
    pub fn note_seq_region(&mut self, seq: &SeqRegion) {
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

    /// Plan one parallel region (region index `idx` in program order).
    pub fn plan_region(&mut self, idx: usize, pl: &ParallelLoop) -> ParRegion {
        let p = self.opts.nprocs;
        let sched = self.opts.schedule_override.unwrap_or(if pl.analysis.triangular {
            Schedule::Cyclic
        } else {
            Schedule::Block
        });
        let g = self.opts.granularity;

        // ---- per-rank exact regions (splitted-LMAD scheme, §5.4) ----
        let mut rank_summaries: Vec<SummarySet> = Vec::with_capacity(p);
        for r in 0..p {
            let (start, every, count) = sched.assignment(pl.trips, r, p);
            let mut set = SummarySet::new();
            if count > 0 {
                for rf in &pl.analysis.refs {
                    let lmad = if every == 1 {
                        rf.footprint(start, count)
                    } else {
                        rf.footprint_cyclic(start, every, count)
                    };
                    if rf.is_write {
                        set.add_write(rf.array, lmad);
                    } else {
                        set.add_read(rf.array, lmad);
                    }
                }
            }
            rank_summaries.push(set);
        }

        let arrays: Vec<ArrayId> = {
            let mut v: Vec<ArrayId> = pl
                .analysis
                .reads
                .iter()
                .chain(&pl.analysis.writes)
                .copied()
                .collect();
            v.sort();
            v.dedup();
            v
        };

        let mut info = RegionPlanInfo {
            line: pl.line,
            sched_cyclic: sched == Schedule::Cyclic,
            ..RegionPlanInfo::default()
        };
        // Record every rank's compute-phase footprints for the static
        // RMA checker (local accesses share the collect epoch with the
        // slaves' collect PUTs), and normalise each of them once for the
        // planning below. Multiple textual references with the same
        // footprint collapse to one access: as transfers, a repeat would
        // double the wire traffic and race against itself inside the
        // collect epoch.
        let mut footprints: Vec<Vec<Footprints>> = Vec::with_capacity(p);
        for summary in &rank_summaries {
            let mut writes = Vec::new();
            let mut reads = Vec::new();
            let per_array = arrays
                .iter()
                .map(|&a| Footprints {
                    collect: dedup_regions(summary.collect_regions(a), |lm| {
                        writes.push((a.0, lm.clone()))
                    }),
                    scatter: dedup_regions(summary.scatter_regions(a), |lm| {
                        reads.push((a.0, lm.clone()))
                    }),
                })
                .collect();
            info.rank_writes.push(writes);
            info.rank_reads.push(reads);
            footprints.push(per_array);
        }
        let mut scatter_plan: Vec<Vec<CommOp>> = vec![Vec::new(); p];
        let mut collect_plan: Vec<Vec<CommOp>> = vec![Vec::new(); p];

        for (k, &a) in arrays.iter().enumerate() {
            let of_array: Vec<&Footprints> = footprints.iter().map(|fps| &fps[k]).collect();
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
        for (r, per_array) in footprints.iter_mut().enumerate() {
            for a in &pl.analysis.writes {
                let k = arrays.binary_search(a).expect("a written array is an array of the region");
                let written = std::mem::take(&mut per_array[k].collect);
                self.fresh[r].insert(*a, CoverIndex::of_normals(written));
            }
        }

        for ops in scatter_plan.iter().chain(collect_plan.iter()) {
            for op in ops {
                if !op.transfer.is_contiguous() {
                    info.strided_msgs += 1;
                }
            }
        }
        info.scatter_msgs = scatter_plan.iter().map(Vec::len).sum();
        info.collect_msgs = collect_plan.iter().map(Vec::len).sum();
        info.scatter_elems = scatter_plan
            .iter()
            .flatten()
            .map(|o| o.transfer.elems())
            .sum();
        info.collect_elems = collect_plan
            .iter()
            .flatten()
            .map(|o| o.transfer.elems())
            .sum();
        self.report.steps.push(PlanStep::Par(self.report.regions.len()));
        self.report.regions.push(info);

        ParRegion {
            var: pl.var,
            lo: pl.lo,
            step: pl.step,
            trips: pl.trips,
            sched,
            body: translate::translate_stmts(&pl.body, &self.analyzed.symbols),
            scatter: CommPlan { per_rank: scatter_plan },
            collect: CommPlan { per_rank: collect_plan },
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
        // Each rank's would-be collected regions at granularity `g`
        // (rank 0's are its exact writes — they reach the master copy
        // directly): its collect lowered at `g`, which the collect plan
        // takes over unless the check falls back to fine grain.
        // `unsafe_approx_collect` skips the safety check entirely —
        // overlapping approximate collects are emitted as-is (the
        // deliberately-racy ablation for the RMA checker).
        let checked = g != Granularity::Fine && !self.opts.unsafe_approx_collect;
        let mut collects: Vec<Vec<RegionTransfer>> = vec![Vec::new(); p];
        let mut collect_g = g;
        if checked {
            for (r, fp) in footprints.iter().enumerate().skip(1) {
                collects[r] = lower_collect(&fp.collect, g);
            }
            let exact: Vec<(usize, Form)> =
                footprints[0].collect.iter().map(|n| (0, n.view())).collect();
            let lowered: Vec<(usize, RegionTransfer)> = collects
                .iter()
                .enumerate()
                .flat_map(|(r, ts)| ts.iter().map(move |&t| (r, t)))
                .collect();
            if cross_rank_overlap(&exact, &lowered) {
                collect_g = Granularity::Fine;
                info.collect_fallback_fine.push(a);
            }
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
                let transfers = if checked && collect_g == g {
                    std::mem::take(&mut collects[r])
                } else {
                    lower_collect(collect_exact, collect_g)
                };
                planned_collect.extend(transfers.into_iter().map(|transfer| CommOp {
                    array: a.0,
                    transfer,
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
            // What the rank holds after its scatter: read by the
            // coherence proof below, and kept for later regions unless
            // the region writes the array (the post-region update then
            // replaces it with what the rank wrote).
            let track = collect_g != Granularity::Fine || !written;
            let mut scattered: Vec<Normal> = Vec::new();
            for n in scatter_regions {
                if fresh_cover.is_some_and(|held| held.covered(n, COVER_LIMIT)) {
                    self.report.elisions.scatters_elided += 1;
                    self.report.elisions.elided_elems += n.distinct_elements(COVER_LIMIT);
                    if track {
                        scattered.push(n.clone()); // still held fresh
                    }
                    continue;
                }
                for t in TransferPlan::lower_normal(n.view(), g, PLAN_LIMIT).transfers {
                    if track {
                        scattered.push(Normal::of_transfer(&t));
                    }
                    planned_scatter.push(CommOp {
                        array: a.0,
                        transfer: t,
                    });
                }
            }

            // Coherence for approximate collection: every collected
            // region must hold only elements this rank wrote or
            // mirrors. Anything else must be scattered first.
            if collect_g != Granularity::Fine {
                let mut sources = fresh.cloned().unwrap_or_default();
                sources.extend(collect_exact.iter().chain(&scattered).cloned());
                for op in &planned_collect {
                    if !sources.covered_transfer(&op.transfer, COVER_LIMIT) {
                        // Scatter the approximate region itself.
                        planned_scatter.push(CommOp {
                            array: a.0,
                            transfer: op.transfer,
                        });
                        sources.push(Normal::of_transfer(&op.transfer));
                        info.coverage_scatters += 1;
                    }
                }
            }

            // Record freshness gained by scattering (read-only arrays
            // keep it; a written array's is replaced after the region).
            if !written && !scattered.is_empty() {
                self.fresh[r].entry(a).or_default().extend(scattered);
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
    pub fn into_report(self) -> PlanReport {
        self.report
    }
}

/// One rank's footprints of one array in one region, each normalised
/// once.
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
fn lower_collect(regions: &[Normal], g: Granularity) -> Vec<RegionTransfer> {
    let merged: Vec<Normal>;
    let regions = if g == Granularity::Coarse {
        merged = merge_bounding(regions).into_iter().collect();
        &merged
    } else {
        regions
    };
    regions
        .iter()
        .flat_map(|n| TransferPlan::lower_normal(n.view(), g, PLAN_LIMIT).transfers)
        .collect()
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

/// Do two *different* ranks' footprints meet? `lmad`'s run sweep — or,
/// in this crate's tests, the pair-at-a-time check it replaced, when a
/// test asks for the reference plan (`tests::pairwise_reference`).
fn cross_rank_overlap(regions: &[(usize, Form)], transfers: &[(usize, RegionTransfer)]) -> bool {
    #[cfg(test)]
    if tests::PAIRWISE.with(std::cell::Cell::get) {
        return tests::cross_rank_overlap_pairwise(regions, transfers);
    }
    lmad::cross_rank_overlap(regions, transfers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmad::Dim;
    use std::cell::Cell;

    thread_local! {
        /// Plan the §5.6 check pair by pair on this thread
        /// ([`pairwise_reference`]).
        pub(super) static PAIRWISE: Cell<bool> = const { Cell::new(false) };
    }

    /// The §5.6 check as it was before the run sweep: every cross-rank
    /// pair whose raw extents meet, one exact test each
    /// ([`Form::overlaps`] is what `Lmad::overlaps` asks), each
    /// transfer's region normalised once.
    pub(super) fn cross_rank_overlap_pairwise(
        regions: &[(usize, Form)],
        transfers: &[(usize, RegionTransfer)],
    ) -> bool {
        let lowered: Vec<(usize, Normal)> =
            transfers.iter().map(|(r, t)| (*r, Normal::of(&Lmad::strided(t.offset, t.stride as i64, t.count)))).collect();
        let all: Vec<(usize, Form)> =
            regions.iter().copied().chain(lowered.iter().map(|(r, n)| (*r, n.view()))).collect();
        let extents: Vec<(i64, i64)> = all.iter().map(|(_, n)| n.extent()).collect();
        lmad::sweep::any_overlapping_pair(&extents, |i, j| {
            let ((ri, x), (rj, y)) = (all[i], all[j]);
            ri != rj && x.overlaps(y)
        })
    }

    /// `compile_backend` with the §5.6 check made by the reference.
    fn pairwise_reference(analyzed: &AnalyzedProgram, opts: &BackendOptions) -> crate::CompiledProgram {
        PAIRWISE.with(|on| on.set(true));
        let out = crate::compile_backend(analyzed, opts);
        PAIRWISE.with(|on| on.set(false));
        out
    }

    /// The planner's coverage question, at the planner's budget.
    fn covered(needed: &Lmad, have: &[Lmad]) -> bool {
        CoverIndex::new(have).covered(&Normal::of(needed), COVER_LIMIT)
    }

    /// The §5.6 check over per-rank lists of raw regions.
    fn overlap_of(per_rank: &[Vec<Lmad>]) -> bool {
        let normals: Vec<Vec<Normal>> =
            per_rank.iter().map(|rs| rs.iter().map(Normal::of).collect()).collect();
        let tagged: Vec<(usize, Form)> = normals
            .iter()
            .enumerate()
            .flat_map(|(r, ns)| ns.iter().map(move |n| (r, n.view())))
            .collect();
        let verdict = cross_rank_overlap(&tagged, &[]);
        assert_eq!(verdict, cross_rank_overlap_pairwise(&tagged, &[]));
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
            let (mid, reference) = (lmad::work::read(), pairwise_reference(&analyzed, &opts));
            #[cfg(not(debug_assertions))]
            let reference = pairwise_reference(&analyzed, &opts);
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
