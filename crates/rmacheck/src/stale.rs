//! AVPG elision soundness (VPCE006): whole-program reasoning over the
//! planner's execution timeline ([`polaris_be::PlanStep`]).
//!
//! When the backend elides a collect (a `Valid -> Invalid` AVPG edge,
//! §5.2), the values a slave computed never reach the master copy —
//! the master is **stale** in exactly the slave-written regions. The
//! elision is sound only if every stale region is fully overwritten
//! (with the overwrite actually collected) before anything reads the
//! array again, and the program does not end with the stale array as
//! live output. This pass re-derives that argument from the lowered
//! plan alone, independently of the AVPG that justified the elision —
//! a planner bug (or a deliberately unsound ablation) surfaces as a
//! VPCE006 diagnostic.
//!
//! Soundness direction matches the rest of the lint: staleness is
//! only *cleared* when coverage is proved (exact region algebra
//! within a bounded proof budget), so the pass may flag a sound
//! elision in unanalysable corners but never greenlights an unsound
//! one.

use lmad::{CoverIndex, Lmad, Normal, COVER_LIMIT};
use polaris_be::{PlanReport, PlanStep, RegionPlanInfo};
use spmd_rt::ir::{ParRegion, SpmdProgram};

use crate::diag::{Code, Diagnostic, LintReport};
use crate::LintOptions;

/// One stale region of the master copy: where it is, and which loop's
/// elided collect caused it.
#[derive(Debug, Clone)]
struct StaleRegion {
    region: Lmad,
    rank: usize,
    line: usize,
}

/// Regions of array `a` that reach the master copy in this parallel
/// region, indexed: rank 0's own stores plus everything the collect
/// plan actually transfers.
fn master_updates(region: &ParRegion, info: &RegionPlanInfo, a: usize) -> CoverIndex {
    let own = info.rank_writes.first().into_iter().flatten();
    let collected = region.collect.per_rank.iter().skip(1).flatten();
    CoverIndex::of_normals(
        own.filter(|(arr, _)| *arr == a)
            .map(|(_, lm)| Normal::of(lm))
            .chain(collected.filter(|op| op.array == a).map(|op| Normal::of_transfer(&op.transfer))),
    )
}

/// Slave-written regions of `a` that the collect plan does *not*
/// transfer back — the new staleness this region introduces.
fn uncollected_writes(region: &ParRegion, info: &RegionPlanInfo, a: usize) -> Vec<StaleRegion> {
    let mut stale = Vec::new();
    for (r, writes) in info.rank_writes.iter().enumerate().skip(1) {
        let collected = CoverIndex::of_normals(
            region
                .collect
                .per_rank
                .get(r)
                .into_iter()
                .flatten()
                .filter(|op| op.array == a)
                .map(|op| Normal::of_transfer(&op.transfer)),
        );
        for (arr, lm) in writes {
            if *arr != a {
                continue;
            }
            if !collected.covered(&Normal::of(lm), COVER_LIMIT) {
                stale.push(StaleRegion {
                    region: lm.clone(),
                    rank: r,
                    line: region.line,
                });
            }
        }
    }
    stale
}

fn flag(out: &mut LintReport, prog: &SpmdProgram, a: usize, s: &StaleRegion, site: &str, why: &str) {
    let name = prog.arrays.get(a).map_or("?", |(n, _)| n.as_str());
    out.push(Diagnostic {
        code: Code::UnsoundElision,
        win: a,
        win_name: name.to_string(),
        shard: 0,
        ranks: (s.rank, s.rank),
        line: s.line,
        site: site.into(),
        detail: format!(
            "collect of `{name}` elided for rank {} at the loop on line {} \
             left the master copy stale, and {why}",
            s.rank, s.line
        ),
    });
}

/// Walk the plan timeline and flag stale master regions that are
/// consumed (or survive to program exit while outputs are live).
pub fn check_elisions(
    prog: &SpmdProgram,
    report: &PlanReport,
    opts: &LintOptions,
    out: &mut LintReport,
) {
    let par_regions: Vec<&ParRegion> = prog.regions().collect();
    // Per-array stale master regions, keyed by array index.
    let mut stale: Vec<Vec<StaleRegion>> = vec![Vec::new(); prog.arrays.len()];

    for step in &report.steps {
        match step {
            PlanStep::Seq { reads, writes } => {
                for &a in reads {
                    if let Some(regions) = stale.get(a) {
                        for s in regions {
                            flag(
                                out,
                                prog,
                                a,
                                s,
                                "avpg/seq",
                                "a later sequential section reads the array on the master",
                            );
                        }
                    }
                }
                // A sequential write is whole-array granularity: it
                // *may* be a full overwrite, but that cannot be proved
                // here, so staleness is conservatively retained. (The
                // planner is equally conservative and never elides
                // across an unanalysed write, so sound plans do not
                // reach this corner.)
                let _ = writes;
            }
            PlanStep::Par(i) => {
                let (Some(region), Some(info)) = (par_regions.get(*i), report.regions.get(*i))
                else {
                    continue;
                };
                // Arrays this region consumes (analysis-level reads:
                // scatter-sourced compute inputs on any rank).
                let mut read_arrays: Vec<usize> = info
                    .rank_reads
                    .iter()
                    .flatten()
                    .map(|(a, _)| *a)
                    .collect();
                read_arrays.sort_unstable();
                read_arrays.dedup();
                for a in read_arrays {
                    if let Some(regions) = stale.get(a) {
                        for s in regions {
                            flag(
                                out,
                                prog,
                                a,
                                s,
                                "avpg/scatter",
                                "a later parallel region reads the array \
                                 (its scatter sources the stale master copy)",
                            );
                        }
                    }
                }
                // Update staleness from this region's writes.
                let mut written_arrays: Vec<usize> = info
                    .rank_writes
                    .iter()
                    .flatten()
                    .map(|(a, _)| *a)
                    .collect();
                written_arrays.sort_unstable();
                written_arrays.dedup();
                for a in written_arrays {
                    let updates = master_updates(region, info, a);
                    if let Some(regions) = stale.get_mut(a) {
                        regions.retain(|s| !updates.covered(&Normal::of(&s.region), COVER_LIMIT));
                        regions.extend(uncollected_writes(region, info, a));
                    }
                }
            }
        }
    }

    if opts.outputs_live {
        for (a, regions) in stale.iter().enumerate() {
            for s in regions {
                flag(
                    out,
                    prog,
                    a,
                    s,
                    "avpg/output",
                    "the program ends with the array as live output",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmad::RegionTransfer;
    use spmd_rt::ir::{Block, CommOp, CommPlan, Schedule};

    fn comm(per_rank: Vec<Vec<CommOp>>) -> CommPlan {
        CommPlan { per_rank }
    }

    fn op(array: usize, offset: i64, count: u64) -> CommOp {
        CommOp {
            array,
            transfer: RegionTransfer {
                offset,
                stride: 1,
                count,
            },
        }
    }

    /// Two ranks, one array of 16 elements; rank 0 writes [0,8), rank
    /// 1 writes [8,16). `collect` controls whether rank 1's half is
    /// transferred back.
    fn writing_region(collect: bool) -> (ParRegion, RegionPlanInfo) {
        let region = ParRegion {
            var: 0,
            lo: 1,
            step: 1,
            trips: 16,
            sched: Schedule::Block,
            body: Vec::new(),
            scatter: comm(vec![Vec::new(), Vec::new()]),
            collect: comm(vec![
                Vec::new(),
                if collect { vec![op(0, 8, 8)] } else { Vec::new() },
            ]),
            pull_scatter: false,
            lock_reductions: false,
            scalars_in: Vec::new(),
            private_scalars: Vec::new(),
            reductions: Vec::new(),
            line: 5,
        };
        let info = RegionPlanInfo {
            line: 5,
            rank_writes: vec![
                vec![(0, Lmad::contiguous(0, 8))],
                vec![(0, Lmad::contiguous(8, 8))],
            ],
            rank_reads: vec![Vec::new(), Vec::new()],
            ..Default::default()
        };
        (region, info)
    }

    fn reading_region_info() -> RegionPlanInfo {
        RegionPlanInfo {
            line: 9,
            rank_writes: vec![Vec::new(), Vec::new()],
            rank_reads: vec![
                vec![(0, Lmad::contiguous(0, 16))],
                vec![(0, Lmad::contiguous(0, 16))],
            ],
            ..Default::default()
        }
    }

    fn reading_region() -> ParRegion {
        ParRegion {
            var: 0,
            lo: 1,
            step: 1,
            trips: 16,
            sched: Schedule::Block,
            body: Vec::new(),
            scatter: comm(vec![Vec::new(), vec![op(0, 0, 16)]]),
            collect: comm(vec![Vec::new(), Vec::new()]),
            pull_scatter: false,
            lock_reductions: false,
            scalars_in: Vec::new(),
            private_scalars: Vec::new(),
            reductions: Vec::new(),
            line: 9,
        }
    }

    fn program(blocks: Vec<Block>) -> SpmdProgram {
        SpmdProgram {
            name: "t".into(),
            nprocs: 2,
            arrays: vec![("A".into(), 16)],
            scalars: Vec::new(),
            blocks,
            sequential: Vec::new(),
        }
    }

    fn run(prog: &SpmdProgram, report: &PlanReport, outputs_live: bool) -> LintReport {
        let mut out = crate::diag::new_report("t");
        check_elisions(
            prog,
            report,
            &LintOptions { outputs_live },
            &mut out,
        );
        out.sort();
        out
    }

    #[test]
    fn collected_writes_leave_no_staleness() {
        let (region, info) = writing_region(true);
        let prog = program(vec![Block::Parallel(region)]);
        let report = PlanReport {
            regions: vec![info],
            steps: vec![PlanStep::Par(0)],
            ..Default::default()
        };
        assert!(run(&prog, &report, true).is_clean());
    }

    #[test]
    fn elided_collect_with_live_output_flags_vpce006() {
        let (region, info) = writing_region(false);
        let prog = program(vec![Block::Parallel(region)]);
        let report = PlanReport {
            regions: vec![info],
            steps: vec![PlanStep::Par(0)],
            ..Default::default()
        };
        let r = run(&prog, &report, true);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code, Code::UnsoundElision);
        assert_eq!(r.diags[0].ranks, (1, 1));
        // Dead outputs make the same elision sound.
        assert!(run(&prog, &report, false).is_clean());
    }

    #[test]
    fn elided_collect_read_by_later_region_flags_vpce006() {
        let (w, wi) = writing_region(false);
        let r2 = reading_region();
        let prog = program(vec![Block::Parallel(w), Block::Parallel(r2)]);
        let report = PlanReport {
            regions: vec![wi, reading_region_info()],
            steps: vec![PlanStep::Par(0), PlanStep::Par(1)],
            ..Default::default()
        };
        let r = run(&prog, &report, false);
        assert!(r
            .diags
            .iter()
            .any(|d| d.code == Code::UnsoundElision && d.site == "avpg/scatter"));
    }

    #[test]
    fn elided_collect_read_by_seq_section_flags_vpce006() {
        let (w, wi) = writing_region(false);
        let prog = program(vec![Block::Parallel(w), Block::MasterSeq(Vec::new())]);
        let report = PlanReport {
            regions: vec![wi],
            steps: vec![
                PlanStep::Par(0),
                PlanStep::Seq {
                    reads: vec![0],
                    writes: Vec::new(),
                },
            ],
            ..Default::default()
        };
        let r = run(&prog, &report, false);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].site, "avpg/seq");
    }

    #[test]
    fn full_overwrite_with_collection_clears_staleness() {
        let (w1, i1) = writing_region(false); // stale [8,16)
        let (w2, i2) = writing_region(true); // rewrites whole array, collected
        let prog = program(vec![Block::Parallel(w1), Block::Parallel(w2)]);
        let report = PlanReport {
            regions: vec![i1, i2],
            steps: vec![PlanStep::Par(0), PlanStep::Par(1)],
            ..Default::default()
        };
        assert!(run(&prog, &report, true).is_clean());
    }

    #[test]
    fn seq_write_does_not_clear_staleness() {
        let (w, wi) = writing_region(false);
        let prog = program(vec![Block::Parallel(w), Block::MasterSeq(Vec::new())]);
        let report = PlanReport {
            regions: vec![wi],
            steps: vec![
                PlanStep::Par(0),
                PlanStep::Seq {
                    reads: Vec::new(),
                    writes: vec![0],
                },
            ],
            ..Default::default()
        };
        // Whole-array seq write cannot be proved a full overwrite:
        // the live-output staleness survives.
        let r = run(&prog, &report, true);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].site, "avpg/output");
    }
}
