//! Region planning: work partitioning (§5.3), data scattering and
//! collecting from splitted LMADs (§5.4), AVPG-driven communication
//! elision (§5.2), and the fine/middle/coarse granularity lowering
//! with its overlap safety check (§5.6).

use std::collections::HashMap;

use lmad::{
    sweep, ArrayId, CoverIndex, Granularity, Lmad, SummarySet, TransferPlan, COVER_LIMIT,
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
/// copy provably mirrors.
type Freshness = Vec<HashMap<ArrayId, Vec<Lmad>>>;

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
        // slaves' collect PUTs). Multiple textual references with the
        // same footprint collapse to one access.
        for summary in &rank_summaries {
            let mut writes = Vec::new();
            let mut reads = Vec::new();
            for &a in &arrays {
                for lm in dedup_regions(summary.collect_regions(a).into_iter().cloned()) {
                    writes.push((a.0, lm));
                }
                for lm in dedup_regions(summary.scatter_regions(a).into_iter().cloned()) {
                    reads.push((a.0, lm));
                }
            }
            info.rank_writes.push(writes);
            info.rank_reads.push(reads);
        }
        let mut scatter_plan: Vec<Vec<CommOp>> = vec![Vec::new(); p];
        let mut collect_plan: Vec<Vec<CommOp>> = vec![Vec::new(); p];

        for &a in &arrays {
            self.plan_array(
                a,
                pl,
                idx,
                g,
                &rank_summaries,
                &mut scatter_plan,
                &mut collect_plan,
                &mut info,
            );
        }

        // ---- freshness update ----
        // (Pure-read regions already recorded their scattered data
        // inside plan_array; written arrays reset to exactly what the
        // rank wrote — collected back under the overlap check.)
        for (r, summary) in rank_summaries.iter().enumerate() {
            for &a in &pl.analysis.writes {
                let written: Vec<Lmad> =
                    summary.collect_regions(a).into_iter().cloned().collect();
                self.fresh[r].insert(a, written);
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

    /// Plan the communication of one array across all ranks.
    #[allow(clippy::too_many_arguments)]
    fn plan_array(
        &mut self,
        a: ArrayId,
        pl: &ParallelLoop,
        region_idx: usize,
        g: Granularity,
        rank_summaries: &[SummarySet],
        scatter_plan: &mut [Vec<CommOp>],
        collect_plan: &mut [Vec<CommOp>],
        info: &mut RegionPlanInfo,
    ) {
        let p = self.opts.nprocs;

        // Each rank's exact collect regions. Duplicate footprints
        // (several references touching the same region) must not
        // become duplicate transfers: the repeat would double the wire
        // traffic and race against itself inside the collect epoch —
        // and in the §5.6 list below it would only add same-rank pairs
        // the check drops.
        let collect_exact: Vec<Vec<Lmad>> = rank_summaries
            .iter()
            .map(|s| dedup_regions(s.collect_regions(a).into_iter().cloned()))
            .collect();

        // ---- collection granularity: §5.6 overlap safety check ----
        // Build each rank's would-be collected regions at granularity
        // `g` (rank 0's are its exact writes — they reach the master
        // copy directly).
        let mut collect_g = g;
        // `unsafe_approx_collect` skips the safety check entirely —
        // overlapping approximate collects are emitted as-is (the
        // deliberately-racy ablation for the RMA checker).
        if g != Granularity::Fine && !self.opts.unsafe_approx_collect {
            let mut approx: Vec<Vec<Lmad>> = Vec::with_capacity(p);
            for (r, regions) in collect_exact.iter().enumerate() {
                if r == 0 {
                    approx.push(regions.clone());
                } else {
                    let regions: Vec<Lmad> = if g == Granularity::Coarse {
                        merge_bounding(regions).into_iter().collect()
                    } else {
                        regions.clone()
                    };
                    let mut lowered = Vec::new();
                    for lm in &regions {
                        for t in TransferPlan::lower(lm, g, PLAN_LIMIT).transfers {
                            lowered.push(transfer_lmad(&t));
                        }
                    }
                    approx.push(lowered);
                }
            }
            if cross_rank_overlap(&approx) {
                collect_g = Granularity::Fine;
                info.collect_fallback_fine.push(a);
            }
        }

        // ---- per-rank plans ----
        for r in 1..p {
            let summary = &rank_summaries[r];
            let collect_exact = &collect_exact[r];
            let scatter_exact: Vec<Lmad> =
                dedup_regions(summary.scatter_regions(a).into_iter().cloned());
            // Figure 9(d): at coarse grain "one big approximate
            // region … is transfered to each remote processor" — all
            // of a rank's regions merge into a single bounding run.
            let collect_regions: Vec<Lmad> = if collect_g == Granularity::Coarse {
                merge_bounding(collect_exact).into_iter().collect()
            } else {
                collect_exact.clone()
            };
            let scatter_regions: Vec<Lmad> = if g == Granularity::Coarse {
                merge_bounding(&scatter_exact).into_iter().collect()
            } else {
                scatter_exact.clone()
            };

            // Collect: may be elided entirely when the AVPG proves the
            // value dead (Valid -> Invalid edge, §5.2).
            let collect_dead = self.opts.use_avpg && self.value_dead_after(region_idx, a);
            let mut planned_collect: Vec<CommOp> = Vec::new();
            if !collect_dead {
                for lm in &collect_regions {
                    for t in TransferPlan::lower(lm, collect_g, PLAN_LIMIT).transfers {
                        planned_collect.push(CommOp {
                            array: a.0,
                            transfer: t,
                        });
                    }
                }
            } else if !collect_exact.is_empty() {
                self.report.elisions.collects_elided += 1;
                self.report.elisions.elided_elems += collect_exact
                    .iter()
                    .map(|l| l.distinct_elements(COVER_LIMIT))
                    .sum::<u64>();
            }

            // Scatter: elide regions the slave already holds fresh
            // (delayed communication across Propagate nodes, §5.2).
            let fresh = self.fresh[r].get(&a).cloned().unwrap_or_default();
            let fresh_cover = self.opts.use_avpg.then(|| CoverIndex::new(&fresh));
            let mut planned_scatter: Vec<CommOp> = Vec::new();
            let mut scattered_lmads: Vec<Lmad> = Vec::new();
            for lm in &scatter_regions {
                if fresh_cover.as_ref().is_some_and(|held| held.covered(lm, COVER_LIMIT)) {
                    self.report.elisions.scatters_elided += 1;
                    self.report.elisions.elided_elems += lm.distinct_elements(COVER_LIMIT);
                    scattered_lmads.push(lm.clone()); // still held fresh
                    continue;
                }
                for t in TransferPlan::lower(lm, g, PLAN_LIMIT).transfers {
                    scattered_lmads.push(transfer_lmad(&t));
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
                let mut sources =
                    CoverIndex::new(collect_exact.iter().chain(&scattered_lmads).chain(&fresh));
                for op in &planned_collect {
                    let needed = transfer_lmad(&op.transfer);
                    if !sources.covered(&needed, COVER_LIMIT) {
                        // Scatter the approximate region itself.
                        planned_scatter.push(CommOp {
                            array: a.0,
                            transfer: op.transfer,
                        });
                        sources.push(&needed);
                        info.coverage_scatters += 1;
                    }
                }
            }

            // Record freshness gained by scattering (read-only arrays
            // keep it; written arrays are overwritten by the
            // post-region freshness update).
            if !scattered_lmads.is_empty() {
                self.fresh[r].entry(a).or_default().extend(scattered_lmads);
            }

            scatter_plan[r].extend(planned_scatter);
            collect_plan[r].extend(planned_collect);
        }
        let _ = pl;
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
                    let whole = Lmad::contiguous(0, len as u64);
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

/// Drop regions whose normalized form already appeared (order
/// preserved).
fn dedup_regions(regions: impl Iterator<Item = Lmad>) -> Vec<Lmad> {
    let mut out: Vec<Lmad> = Vec::new();
    let mut seen: Vec<Lmad> = Vec::new();
    for lm in regions {
        let n = lm.normalized();
        if !seen.contains(&n) {
            seen.push(n);
            out.push(lm);
        }
    }
    out
}

/// The single bounding contiguous region covering a region list
/// (`None` when the list is empty).
fn merge_bounding(regions: &[Lmad]) -> Option<Lmad> {
    let (mut lo, mut hi) = regions.first()?.extent();
    for r in &regions[1..] {
        let (l, h) = r.extent();
        lo = lo.min(l);
        hi = hi.max(h);
    }
    Some(Lmad::contiguous(lo, (hi - lo + 1) as u64))
}

/// The memory region one wire transfer covers.
fn transfer_lmad(t: &lmad::RegionTransfer) -> Lmad {
    Lmad::strided(t.offset, t.stride as i64, t.count)
}

/// Do two *different* ranks' region lists intersect anywhere?
fn cross_rank_overlap(per_rank: &[Vec<Lmad>]) -> bool {
    let regions: Vec<(usize, &Lmad)> = per_rank
        .iter()
        .enumerate()
        .flat_map(|(r, rs)| rs.iter().map(move |lm| (r, lm)))
        .collect();
    let extents: Vec<(i64, i64)> = regions.iter().map(|(_, lm)| lm.extent()).collect();
    sweep::any_overlapping_pair(&extents, |i, j| {
        let ((ri, x), (rj, y)) = (regions[i], regions[j]);
        ri != rj && x.overlaps(y)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmad::Dim;

    /// The planner's coverage question, at the planner's budget.
    fn covered(needed: &Lmad, have: &[Lmad]) -> bool {
        CoverIndex::new(have).covered(needed, COVER_LIMIT)
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
        assert!(!cross_rank_overlap(&[r0.clone(), r1]));
        let r2 = vec![Lmad::contiguous(6, 4)];
        assert!(cross_rank_overlap(&[r0, r2]));
    }

    #[test]
    fn transfer_lmad_roundtrip() {
        let t = lmad::RegionTransfer {
            offset: 5,
            stride: 3,
            count: 4,
        };
        let l = transfer_lmad(&t);
        assert_eq!(l.offsets(100).unwrap(), vec![5, 8, 11, 14]);
        let t2 = lmad::RegionTransfer {
            offset: 5,
            stride: 1,
            count: 4,
        };
        assert_eq!(transfer_lmad(&t2), Lmad::contiguous(5, 4));
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
}
