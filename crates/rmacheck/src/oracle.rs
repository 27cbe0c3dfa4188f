//! The lint as it read plans message by message, kept as the reference
//! the op-level lint is held to: [`lint`](crate::lint) renders the same
//! bytes, human and JSON, as a lint of one event per wire message with
//! one staleness member per message, on the example programs and on
//! generated plans.

use lmad::{Dim, Granularity, Lmad, TransferPlan};
use polaris_be::{BackendOptions, PlanReport, PlanStep, RegionPlanInfo};
use spmd_rt::ir::{Block, CommOp, CommPlan, ParRegion, Schedule, SpmdProgram};
use vpce_testkit::prelude::*;

use crate::check::{check_bounds, check_trace};
use crate::trace::{Event, Op, RmaTrace};
use crate::{diag, lint, lower, stale, LintOptions, LintReport};

/// `trace` with every planned op replaced by one event per wire
/// message, in the order the messages are issued — the trace the
/// lowering built before a planned op was one event.
fn by_message(trace: RmaTrace) -> RmaTrace {
    let ranks = trace.ranks.into_iter().map(|evs| {
        evs.into_iter()
            .flat_map(|e| match e {
                Event::Rma(Op { messages: Some(plan), win, target, kind, line, site, .. }) => plan
                    .transfers()
                    .map(|t| {
                        let region = Lmad::strided(t.offset, t.stride as i64, t.count);
                        Event::Rma(Op { win, target, kind, region, messages: None, line, site })
                    })
                    .collect(),
                e => vec![e],
            })
            .collect()
    });
    RmaTrace { ranks: ranks.collect(), ..trace }
}

/// `prog` with every planned op split into one op per wire message:
/// the staleness pass then indexes one member per message.
fn split_ops(prog: &SpmdProgram) -> SpmdProgram {
    let split = |plan: &mut CommPlan| {
        for ops in &mut plan.per_rank {
            *ops = ops
                .iter()
                .flat_map(|op| op.transfers().map(|(array, t)| CommOp { array, descriptor: t.into() }))
                .collect();
        }
    };
    let mut prog = prog.clone();
    for block in &mut prog.blocks {
        if let Block::Parallel(region) = block {
            split(&mut region.scatter);
            split(&mut region.collect);
        }
    }
    prog
}

/// [`crate::lint`] message by message.
fn lint_by_message(prog: &SpmdProgram, report: &PlanReport, opts: &LintOptions) -> LintReport {
    let mut out = diag::new_report(prog.name.clone());
    let trace = by_message(lower(prog, report));
    let lens: Vec<usize> = prog.arrays.iter().map(|(_, len)| *len).collect();
    check_bounds(&trace, &lens, &mut out);
    check_trace(&trace, &mut out);
    stale::check_elisions(&split_ops(prog), report, opts, &mut out);
    out.sort();
    out
}

/// Both lints of one plan, rendered human and JSON; `Err` names the
/// first difference.
fn same_bytes(prog: &SpmdProgram, report: &PlanReport) -> Result<LintReport, String> {
    let opts = LintOptions::default();
    let (got, want) = (lint(prog, report, &opts), lint_by_message(prog, report, &opts));
    if got.render_human() != want.render_human() {
        return Err(format!("human report:\n{}\nmessage by message:\n{}", got.render_human(), want.render_human()));
    }
    if got.to_json() != want.to_json() {
        return Err(format!("JSON report:\n{}\nmessage by message:\n{}", got.to_json(), want.to_json()));
    }
    Ok(got)
}

/// Path counts taken by `f` on this thread (`lmad::work`): op pairs
/// decided on their unions, op pairs walked, ops meeting themselves.
/// `None` in a release build, which counts nothing.
fn paths_of(f: impl FnOnce()) -> Option<[u64; 3]> {
    #[cfg(debug_assertions)]
    let read = || [&lmad::work::UNIONS, &lmad::work::WALKED, &lmad::work::INTRA].map(|c| c.with(std::cell::Cell::get));
    #[cfg(debug_assertions)]
    let before = read();
    f();
    #[cfg(debug_assertions)]
    return Some(std::array::from_fn(|k| read()[k] - before[k]));
    #[cfg(not(debug_assertions))]
    None
}

/// The example programs — MM, SWIM, CFFT, the racy and deadlock
/// fixtures and the aliasing read — on 2, 3, 4 and 16 ranks, at every
/// grain, pushed and pulled: the same report bytes either way.
#[test]
fn examples_lint_the_same_bytes_as_message_by_message() {
    let programs: [(&str, &str, i64); 6] = [
        ("mm", vpce_workloads::mm::SOURCE, 32),
        ("swim", vpce_workloads::swim::SOURCE, 20),
        ("cfft", vpce_workloads::cfft::SOURCE, 0),
        ("racy", include_str!("../../../examples/fortran/racy.f"), 0),
        ("deadlock", include_str!("../../../examples/fortran/deadlock.f"), 0),
        ("alias", include_str!("../../../examples/fortran/alias.f"), 8),
    ];
    let mut exits = [0; 3];
    let taken = paths_of(|| {
        for (name, source, n) in programs {
            let params: Vec<(&str, i64)> = if n > 0 { vec![("N", n)] } else { Vec::new() };
            let analyzed = polaris_fe::compile(source, &params).expect("example compiles");
            for ranks in [2, 3, 4, 16] {
                for g in Granularity::ALL {
                    for pull in [false, true] {
                        let mut variants = vec![BackendOptions::new(ranks).granularity(g).pull(pull)];
                        if name == "racy" {
                            variants.push(variants[0].clone().schedule(Schedule::Cyclic).unsafe_collect(true));
                        }
                        if name == "deadlock" {
                            variants.push(variants[0].clone().avpg(false));
                        }
                        for opts in variants {
                            let c = polaris_be::compile_backend(&analyzed, &opts);
                            let report = same_bytes(&c.program, &c.report)
                                .unwrap_or_else(|e| panic!("{name} on {ranks} ranks, {opts:?}: {e}"));
                            exits[report.exit_code() as usize] += 1;
                        }
                    }
                }
            }
        }
    });
    // Clean plans, warnings (the aliasing read, SWIM's halos) and
    // errors (the racy fixture) all took part.
    assert!(exits.iter().all(|&n| n >= 4), "exits 0/1/2: {exits:?}");
    if let Some([exact, walked, intra]) = taken {
        assert!(exact >= 1000 && intra >= 20, "exact {exact}, walked {walked}, intra {intra}");
    }
}

/// A region for a planned op or a compute footprint: small shapes of
/// every kind (strided, aliasing, degenerate) and, one time in four,
/// one past the exact test's 4096-access budget — aliasing or not —
/// whose ops have ≈ 70 messages.
fn region() -> Gen<Lmad> {
    let dim = zip2(
        weighted(vec![(4, just(1)), (4, i64_in(2, 9)), (1, i64_in(10, 40)), (1, just(0))]),
        weighted(vec![(1, just(1)), (6, u64_in(2, 6)), (1, u64_in(7, 20))]),
    )
    .map(|(s, c)| Dim::new(s, c));
    let small = zip2(i64_in(0, 60), vec_of(dim, 0, 3)).map(|(b, dims)| Lmad::new(b, dims));
    let big = zip3(i64_in(0, 60), elem_of(vec![1i64, 2]), elem_of(vec![3i64, 140, 170]))
        .map(|(b, s, outer)| Lmad::new(b, vec![Dim::new(s, 70), Dim::new(outer, 66)]));
    weighted(vec![(3, small), (1, big)])
}

/// A generated plan: ranks, window lengths, and per region — pushed
/// or pulled — each slave's scatter and collect ops, lowered from
/// generated regions at a generated grain, and each rank's compute
/// footprints.
#[derive(Debug, Clone)]
struct GenPlan {
    nranks: usize,
    lens: Vec<usize>,
    regions: Vec<GenRegion>,
}

#[derive(Debug, Clone)]
struct GenRegion {
    pull: bool,
    /// `(rank, array, region, grain, collect)`.
    ops: Vec<(usize, usize, Lmad, Granularity, bool)>,
    /// `(rank, array, region, write)`.
    footprints: Vec<(usize, usize, Lmad, bool)>,
}

fn gen_plan() -> Gen<GenPlan> {
    let op = zip4(zip2(usize_in(1, 3), usize_in(0, 1)), region(), elem_of(Granularity::ALL.to_vec()), bool_any());
    let footprint = zip3(zip2(usize_in(0, 3), usize_in(0, 1)), region(), bool_any());
    let gen_region = zip3(bool_any(), vec_of(op, 0, 6), vec_of(footprint, 0, 5)).map(|(pull, ops, fps)| GenRegion {
        pull,
        ops: ops.into_iter().map(|((r, a), l, g, c)| (r, a, l, g, c)).collect(),
        footprints: fps.into_iter().map(|((r, a), l, w)| (r, a, l, w)).collect(),
    });
    let lens = vec_of(weighted(vec![(5, just(1 << 14)), (1, usize_in(40, 120))]), 2, 2);
    zip3(usize_in(2, 4), lens, vec_of(gen_region, 1, 2)).map(|(nranks, lens, regions)| GenPlan { nranks, lens, regions })
}

/// The program and plan report a [`GenPlan`] describes.
fn build(plan: &GenPlan) -> (SpmdProgram, PlanReport) {
    let n = plan.nranks;
    let mut blocks = Vec::new();
    let mut report = PlanReport::default();
    for (i, gen) in plan.regions.iter().enumerate() {
        let mut region = ParRegion { pull_scatter: gen.pull, ..ParRegion::blank(n, 10 + i) };
        let mut info = RegionPlanInfo {
            rank_writes: vec![Vec::new(); n],
            rank_reads: vec![Vec::new(); n],
            ..Default::default()
        };
        for (rank, array, l, g, collect) in &gen.ops {
            let op = CommOp { array: *array, descriptor: TransferPlan::lower(l, *g, 0) };
            let side = if *collect { &mut region.collect } else { &mut region.scatter };
            side.per_rank[rank % n].push(op);
        }
        for (rank, array, l, write) in &gen.footprints {
            let side = if *write { &mut info.rank_writes } else { &mut info.rank_reads };
            side[rank % n].push((*array, l.clone()));
        }
        region.collect.per_rank[0].clear();
        region.scatter.per_rank[0].clear();
        blocks.push(Block::Parallel(region));
        report.regions.push(info);
        report.steps.push(PlanStep::Par(i));
    }
    let arrays = plan.lens.iter().enumerate().map(|(a, len)| (format!("A{a}"), *len)).collect();
    let prog = SpmdProgram { name: "gen".into(), nprocs: n, arrays, scalars: Vec::new(), blocks, sequential: Default::default() };
    (prog, report)
}

/// Generated plans — aliasing `A_offsets`, strided messages,
/// middle-grain messages that overlap, GETs, footprints past the
/// exact test's budget, ops past their window — lint to the same bytes
/// as message by message, and every path is taken: op pairs decided on
/// their unions, op pairs walked message by message, and ops whose own
/// messages meet.
#[test]
fn generated_plans_lint_the_same_bytes_as_message_by_message() {
    let taken = paths_of(|| {
        Check::new("rmacheck::generated_plans_lint_the_same_bytes_as_message_by_message")
            .cases(400)
            .run(&gen_plan(), |plan| {
                let (prog, report) = build(plan);
                same_bytes(&prog, &report).map(|_| ()).map_err(PropError::fail)
            });
    });
    if let Some([exact, walked, intra]) = taken {
        assert!(exact >= 200 && walked >= 40 && intra >= 100, "exact {exact}, walked {walked}, intra {intra}");
    }
}
