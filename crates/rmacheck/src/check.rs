//! The epoch analysis over an [`RmaTrace`]:
//!
//! 0. **Window bounds** — every operation and compute footprint must
//!    stay inside its window's declared length (VPCE007), or the run
//!    ends in "RMA past end of window" or a subscript out of range.
//! 1. **Sync alignment** — every rank must execute the same sequence
//!    of fences/barriers/collectives, or the program deadlocks and
//!    fences pair across different epochs (VPCE005).
//! 2. **Epoch closure** — an RMA operation issued after a rank's last
//!    fence never completes inside any exposure epoch (VPCE004).
//! 3. **Epoch conflicts** — within each fence-delimited epoch, every
//!    pair of operations touching the same (window, shard) is
//!    classified; overlapping element footprints with at least one
//!    write are undefined-outcome conflicts (VPCE001/002/003) or
//!    same-origin warnings (VPCE101/102). The scan is [`lmad::epoch`]'s
//!    (the runtime ledger's too); this module cuts the trace into
//!    epochs and turns a colliding pair into a [`Code`].
//!
//! Footprint intersection uses [`lmad::Lmad::overlaps`], which is
//! exact whenever the closed forms apply (progression intersection,
//! the run walk within its budget) and falls back to a conservative
//! interval test otherwise — so this pass
//! **over-approximates**: it may flag a conflict that cannot happen,
//! but never stays green on a real one. That direction is what the
//! differential suite against the `mpi2` dynamic ledger relies on.
//!
//! A planned op is one operation of the scan, its footprint the union
//! of its wire messages, and every answer is the one a scan of the
//! messages themselves gives (`oracle` holds the two to the byte): the
//! questions are `lmad`'s op questions ([`lmad::OpForm`]), which walk
//! messages only where the unions cannot decide. Two messages of one
//! op that meet are a same-origin overlap
//! ([`EpochScan::self_conflicts`]); an op past its window's end is
//! reported message by message.
//!
//! Barriers and collectives inside an epoch do **not** split it: MPI-2
//! orders RMA only at fences (ops are buffered until the epoch
//! closes), so a barrier between two conflicting PUTs does not
//! serialise them.

use std::convert::Infallible;

use lmad::epoch::{Access, ConflictKind, Effect, EpochScan, Footprint};
use lmad::{Form, Lmad, Normal, OpForm};

use crate::diag::{Code, Diagnostic, LintReport};
use crate::trace::{AccessKind, Event, Op, RmaTrace, SyncKind};

/// One epoch of a trace as the scanner holds it. Traces have no
/// accumulates.
type Scan<'a, 'n> = EpochScan<Fp<'a, 'n>, Infallible>;
type OpEffect<'a, 'n> = Effect<Fp<'a, 'n>, Infallible>;

/// An operation and its region's normal form with its extent, taken
/// once: the scanner's join sorts on extents and asks the exact test
/// of every candidate pair, and both read the form held here. A region
/// that already is its own normal form (a fine-grain op's union) is
/// read in place; another is normalised once. A planned op keeps its
/// messages' descriptor, and every question is [`OpForm`]'s: the
/// answer the op's messages give, one by one.
#[derive(Clone, Copy)]
struct Fp<'a, 'n> {
    op: &'a Op,
    form: OpForm<'n>,
}

impl Footprint for Fp<'_, '_> {
    fn extent(&self) -> (i64, i64) {
        self.form.extent()
    }

    fn meets(&self, other: &Self) -> bool {
        self.form.meets(other.form)
    }

    fn meets_itself(&self) -> bool {
        self.form.meets_itself()
    }
}

fn is_local(k: AccessKind) -> bool {
    matches!(k, AccessKind::LocalWrite | AccessKind::LocalRead)
}

/// Flag every operation of `trace` whose footprint reaches outside
/// its window, `lens[win]` elements long (VPCE007): one finding per
/// wire message that does, so only a planned op whose union reaches
/// outside walks its messages.
pub(crate) fn check_bounds(trace: &RmaTrace, lens: &[usize], out: &mut LintReport) {
    for (r, evs) in trace.ranks.iter().enumerate() {
        for e in evs {
            let Event::Rma(op) = e else { continue };
            let len = lens[op.win];
            let inside = |(lo, hi): (i64, i64)| lo >= 0 && usize::try_from(hi).is_ok_and(|hi| hi < len);
            if inside(op.region.extent()) {
                continue;
            }
            let extents: Vec<(i64, i64)> = match &op.messages {
                Some(p) => p
                    .transfers()
                    .map(|t| Lmad::strided(t.offset, t.stride as i64, t.count).extent())
                    .filter(|&e| !inside(e))
                    .collect(),
                None => vec![op.region.extent()],
            };
            for (lo, hi) in extents {
                out.push(Diagnostic {
                    code: Code::WindowBounds,
                    win: op.win,
                    win_name: trace.win_name(op.win).to_string(),
                    shard: op.target,
                    ranks: (r, r),
                    line: op.line,
                    site: op.site.as_str().into(),
                    detail: format!(
                        "{} by rank {r} touches elements {lo}..={hi} of a window \
                         of {len} elements",
                        kind_name(op.kind)
                    ),
                });
            }
        }
    }
}

/// Run the three epoch checks over `trace`, appending findings to
/// `out`.
pub(crate) fn check_trace(trace: &RmaTrace, out: &mut LintReport) {
    // ---- 1. sync alignment ----
    let sync_seqs: Vec<Vec<SyncKind>> = trace
        .ranks
        .iter()
        .map(|evs| {
            evs.iter()
                .filter_map(|e| match e {
                    Event::Sync(k) => Some(*k),
                    Event::Rma(_) => None,
                })
                .collect()
        })
        .collect();
    let mut divergent = false;
    for (r, seq) in sync_seqs.iter().enumerate().skip(1) {
        if seq != &sync_seqs[0] {
            divergent = true;
            let pos = seq
                .iter()
                .zip(&sync_seqs[0])
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| seq.len().min(sync_seqs[0].len()));
            let (a, b) = (
                sync_seqs[0].get(pos).map_or("end", |k| k.as_str()),
                seq.get(pos).map_or("end", |k| k.as_str()),
            );
            out.push(Diagnostic {
                code: Code::DivergentSync,
                win: usize::MAX,
                win_name: String::new(),
                shard: usize::MAX,
                ranks: (0, r),
                line: 0,
                site: "sync".into(),
                detail: format!(
                    "ranks disagree on synchronisation step {pos}: rank 0 \
                     performs `{a}` while rank {r} performs `{b}` — the \
                     program deadlocks or pairs fences across epochs"
                ),
            });
        }
    }

    // ---- 2. epoch closure ----
    for (r, evs) in trace.ranks.iter().enumerate() {
        let last_fence = evs.iter().rposition(is_fence);
        let tail = match last_fence {
            Some(i) => &evs[i + 1..],
            None => &evs[..],
        };
        for e in tail {
            if let Event::Rma(op) = e {
                if !is_local(op.kind) {
                    out.push(Diagnostic {
                        code: Code::Unfenced,
                        win: op.win,
                        win_name: trace.win_name(op.win).to_string(),
                        shard: op.target,
                        ranks: (r, r),
                        line: op.line,
                        site: op.site.as_str().into(),
                        detail: format!(
                            "rank {r} issues a {} after its last fence: the \
                             operation never completes inside an exposure epoch",
                            match op.kind {
                                AccessKind::Put => "PUT",
                                _ => "GET",
                            }
                        ),
                    });
                }
            }
        }
    }

    // With divergent sync sequences the fences no longer pair up, so
    // cross-rank epoch grouping is meaningless; stop here.
    if divergent {
        return;
    }

    // ---- 3. epoch conflicts ----
    // Epoch e of rank r = ops between its e-th and (e+1)-th fence.
    // Only fence-closed epochs take part (an unclosed trailing epoch
    // never applies its ops; those were flagged above).
    for_each_epoch(trace, |epoch, scan| {
        for (kind, a, b) in scan.conflicts() {
            out.push(conflict(trace, epoch, kind, a, b));
        }
        for (kind, a) in scan.self_conflicts() {
            out.push(conflict(trace, epoch, kind, a, a));
        }
    });
}

fn is_fence(e: &Event) -> bool {
    matches!(e, Event::Sync(SyncKind::Fence))
}

/// Hand `visit` the scanner holding each fence-closed epoch, all
/// ranks' operations in rank order (the ranks agree on the fence
/// count: the alignment check passed). Each rank's events are walked
/// once — split at its fences — not once per epoch, one scanner serves
/// every epoch, and a region not already in normal form is normalised
/// once, up front.
fn for_each_epoch<'a>(trace: &'a RmaTrace, mut visit: impl FnMut(usize, &mut Scan<'a, '_>)) {
    let nepochs = trace
        .ranks
        .first()
        .map_or(0, |evs| evs.iter().filter(|e| is_fence(e)).count());
    let rma = |evs: &'a [Event]| {
        evs.iter().filter_map(|e| match e {
            Event::Rma(op) => Some(op),
            Event::Sync(_) => None,
        })
    };
    // Each rank's regions that are not their own normal form, in event
    // order: the walk below meets them in the same order.
    let normalised: Vec<Vec<Normal>> = trace
        .ranks
        .iter()
        .map(|evs| {
            let raw = rma(evs).filter(|op| Form::of_normal(&op.region).is_none());
            raw.map(|op| Normal::of(&op.region)).collect()
        })
        .collect();
    let mut next_normalised: Vec<_> = normalised.iter().map(|forms| forms.iter()).collect();
    let mut epochs_of: Vec<_> = trace
        .ranks
        .iter()
        .map(|evs| evs.split(is_fence))
        .collect();
    let mut scan = Scan::default();
    for epoch in 0..nepochs {
        scan.begin(0);
        for (r, epochs) in epochs_of.iter_mut().enumerate() {
            for op in rma(epochs.next().unwrap_or_default()) {
                let access = match op.kind {
                    AccessKind::Put => Access::Put,
                    AccessKind::Get => Access::Get,
                    AccessKind::LocalWrite => Access::LocalWrite,
                    AccessKind::LocalRead => Access::LocalRead,
                };
                let form = Form::of_normal(&op.region)
                    .or_else(|| next_normalised[r].next().map(Normal::view))
                    .expect("a form for every region not in normal form");
                scan.push(op.win, r, op.target, access, Fp { op, form: OpForm::new(form, op.messages.as_ref()) });
            }
        }
        visit(epoch, &mut scan);
    }
}

/// The diagnostic, code included, for a colliding pair of effects of
/// `epoch`. Pushed in the scanner's order, which is visible in the
/// report: `LintReport::sort` is stable and its key omits `site`.
fn conflict(
    trace: &RmaTrace,
    epoch: usize,
    kind: ConflictKind,
    a: &OpEffect,
    b: &OpEffect,
) -> Diagnostic {
    let (x, y) = (a.op.op, b.op.op);
    let code = if a.origin == b.origin {
        if kind == ConflictKind::WriteWrite {
            Code::SameOriginOverlap
        } else {
            Code::RedundantOverlap
        }
    } else if is_local(x.kind) || is_local(y.kind) {
        Code::PutLocal
    } else if x.kind == AccessKind::Get || y.kind == AccessKind::Get {
        Code::PutGet
    } else {
        Code::PutPut
    };
    Diagnostic {
        code,
        win: x.win,
        win_name: trace.win_name(x.win).to_string(),
        shard: a.shard,
        ranks: (a.origin.min(b.origin), a.origin.max(b.origin)),
        line: x.line.max(y.line),
        site: format!("{}/{}", x.site.as_str(), y.site.as_str()),
        detail: format!(
            "epoch {epoch}: {} by rank {} overlaps {} by rank {} \
             on shard {} with no intervening fence",
            kind_name(x.kind),
            a.origin,
            kind_name(y.kind),
            b.origin,
            a.shard,
        ),
    }
}

fn kind_name(k: AccessKind) -> &'static str {
    match k {
        AccessKind::Put => "PUT",
        AccessKind::Get => "GET",
        AccessKind::LocalWrite => "local store",
        AccessKind::LocalRead => "local load",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Site;

    fn op(kind: AccessKind, win: usize, target: usize, base: i64, count: u64) -> Op {
        Op {
            win,
            target,
            kind,
            region: Lmad::contiguous(base, count),
            messages: None,
            line: 0,
            site: Site::Synthetic,
        }
    }

    fn check(trace: &RmaTrace) -> LintReport {
        let mut r = crate::diag::new_report("t");
        check_trace(trace, &mut r);
        r.sort();
        r
    }

    fn two_rank_trace() -> RmaTrace {
        RmaTrace::new(2, vec!["A".into()])
    }

    /// The work bound, on deterministic counters: MM at `N = 160` on
    /// 16 ranks, fine grain (`mm_lint`'s plan). A planned op is one
    /// effect, so the collect epochs hold 62 and 63 effects — 2 448
    /// and more while each of the plan's 7 215 wire messages was one.
    /// The row bands interleave, so every pair of bands on the
    /// master's shard is a candidate (240 and 120 pairs), and each is
    /// decided as two translates of one shape: no exact test walks a
    /// band's runs.
    #[test]
    fn mm_epochs_are_one_effect_an_op_and_bands_meet_by_translation() {
        let source = include_str!("../../../examples/fortran/mm.f");
        let analyzed = polaris_fe::compile(source, &[("N", 160)]).expect("mm.f compiles");
        let compiled =
            polaris_be::compile_backend(&analyzed, &polaris_be::BackendOptions::new(16));
        let trace = crate::lower(&compiled.program, &compiled.report);
        let events: usize = trace.ranks.iter().map(Vec::len).sum();
        assert_eq!(events, 268);
        let mut sizes = Vec::new();
        #[cfg(debug_assertions)]
        let (_, tests_before) = lmad::work::read();
        for_each_epoch(&trace, |_, scan| {
            let effects = scan.effects().len();
            if effects > 0 {
                let candidates = scan.candidates().len();
                assert_eq!(scan.conflicts().count(), 0);
                sizes.push((effects, candidates));
            }
        });
        assert_eq!(sizes, [(62, 240), (15, 0), (63, 120)]);
        #[cfg(debug_assertions)]
        assert_eq!(lmad::work::read().1, tests_before, "an exact test walked runs");
    }

    #[test]
    fn footprints_past_a_window_end_flag_vpce007() {
        let mut t = two_rank_trace();
        t.op(1, op(AccessKind::Put, 0, 0, 12, 4)); // elements 12..=15: in range
        t.op(1, op(AccessKind::Put, 0, 0, 13, 4)); // ..=16: one past the end
        t.op(0, op(AccessKind::LocalWrite, 0, 0, -1, 2));
        t.sync_all(SyncKind::Fence);
        let mut r = crate::diag::new_report("t");
        check_bounds(&t, &[16], &mut r);
        r.sort();
        let found: Vec<_> = r.diags.iter().map(|d| (d.code, d.ranks, d.detail.as_str())).collect();
        assert_eq!(
            found,
            [
                (
                    Code::WindowBounds,
                    (0, 0),
                    "local store by rank 0 touches elements -1..=0 of a window of 16 elements"
                ),
                (
                    Code::WindowBounds,
                    (1, 1),
                    "PUT by rank 1 touches elements 13..=16 of a window of 16 elements"
                ),
            ]
        );
        assert_eq!(r.exit_code(), 2);
    }

    #[test]
    fn disjoint_puts_are_clean() {
        let mut t = RmaTrace::new(3, vec!["A".into()]);
        t.op(1, op(AccessKind::Put, 0, 0, 0, 4));
        t.op(2, op(AccessKind::Put, 0, 0, 4, 4));
        t.sync_all(SyncKind::Fence);
        assert!(check(&t).is_clean());
    }

    #[test]
    fn overlapping_puts_flag_vpce001() {
        let mut t = RmaTrace::new(3, vec!["A".into()]);
        t.op(1, op(AccessKind::Put, 0, 0, 0, 4));
        t.op(2, op(AccessKind::Put, 0, 0, 3, 4));
        t.sync_all(SyncKind::Fence);
        let r = check(&t);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code, Code::PutPut);
        assert_eq!(r.diags[0].ranks, (1, 2));
        assert_eq!(r.exit_code(), 2);
    }

    #[test]
    fn fence_between_puts_resolves_conflict() {
        let mut t = RmaTrace::new(3, vec!["A".into()]);
        t.op(1, op(AccessKind::Put, 0, 0, 0, 4));
        t.sync_all(SyncKind::Fence);
        t.op(2, op(AccessKind::Put, 0, 0, 3, 4));
        t.sync_all(SyncKind::Fence);
        assert!(check(&t).is_clean());
    }

    #[test]
    fn barrier_does_not_split_an_epoch() {
        let mut t = RmaTrace::new(3, vec!["A".into()]);
        t.op(1, op(AccessKind::Put, 0, 0, 0, 4));
        t.sync_all(SyncKind::Barrier);
        t.op(2, op(AccessKind::Put, 0, 0, 3, 4));
        t.sync_all(SyncKind::Fence);
        let r = check(&t);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code, Code::PutPut);
    }

    #[test]
    fn put_vs_get_flags_vpce002_both_sides() {
        // Target-side: PUT overlaps the GET's read of shard 0.
        let mut t = RmaTrace::new(3, vec!["A".into()]);
        t.op(1, op(AccessKind::Put, 0, 0, 2, 2));
        t.op(2, op(AccessKind::Get, 0, 0, 3, 4));
        t.sync_all(SyncKind::Fence);
        let r = check(&t);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code, Code::PutGet);
        assert_eq!(r.diags[0].shard, 0);

        // Origin-side: a GET writes the origin's own shard; a PUT into
        // that shard at the same offsets collides there.
        let mut t2 = RmaTrace::new(3, vec!["A".into()]);
        t2.op(2, op(AccessKind::Get, 0, 0, 0, 4));
        t2.op(1, op(AccessKind::Put, 0, 2, 2, 2));
        t2.sync_all(SyncKind::Fence);
        let r2 = check(&t2);
        assert_eq!(r2.diags.len(), 1);
        assert_eq!(r2.diags[0].code, Code::PutGet);
        assert_eq!(r2.diags[0].shard, 2);
    }

    #[test]
    fn put_vs_local_access_flags_vpce003() {
        let mut t = two_rank_trace();
        t.op(1, op(AccessKind::Put, 0, 0, 0, 8));
        t.op(0, op(AccessKind::LocalWrite, 0, 0, 4, 4));
        t.sync_all(SyncKind::Fence);
        let r = check(&t);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code, Code::PutLocal);
    }

    #[test]
    fn self_get_is_inert() {
        let mut t = two_rank_trace();
        t.op(1, op(AccessKind::Get, 0, 1, 0, 8));
        t.op(0, op(AccessKind::Put, 0, 1, 0, 8));
        t.sync_all(SyncKind::Fence);
        // Only the real PUT writes shard 1; the self-get vanished.
        assert!(check(&t).is_clean());
    }

    #[test]
    fn unfenced_put_flags_vpce004() {
        let mut t = two_rank_trace();
        t.sync_all(SyncKind::Fence);
        t.op(1, op(AccessKind::Put, 0, 0, 0, 4));
        let r = check(&t);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code, Code::Unfenced);
        assert_eq!(r.diags[0].ranks, (1, 1));
    }

    #[test]
    fn trailing_epoch_ops_are_not_cross_matched() {
        // Two overlapping PUTs after the last fence: both unfenced,
        // but no VPCE001 — they are never applied.
        let mut t = RmaTrace::new(3, vec!["A".into()]);
        t.sync_all(SyncKind::Fence);
        t.op(1, op(AccessKind::Put, 0, 0, 0, 4));
        t.op(2, op(AccessKind::Put, 0, 0, 0, 4));
        let r = check(&t);
        assert_eq!(r.diags.len(), 2);
        assert!(r.diags.iter().all(|d| d.code == Code::Unfenced));
    }

    #[test]
    fn divergent_sync_flags_vpce005() {
        let mut t = two_rank_trace();
        t.ranks[0].push(Event::Sync(SyncKind::Fence));
        t.ranks[0].push(Event::Sync(SyncKind::Barrier));
        t.ranks[1].push(Event::Sync(SyncKind::Barrier));
        t.ranks[1].push(Event::Sync(SyncKind::Fence));
        let r = check(&t);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code, Code::DivergentSync);
        assert!(r.diags[0].detail.contains("step 0"));
    }

    #[test]
    fn missing_collective_on_one_rank_flags_vpce005() {
        let mut t = two_rank_trace();
        t.ranks[0].push(Event::Sync(SyncKind::Reduce));
        t.ranks[0].push(Event::Sync(SyncKind::Fence));
        t.ranks[1].push(Event::Sync(SyncKind::Fence));
        let r = check(&t);
        assert_eq!(r.diags[0].code, Code::DivergentSync);
    }

    #[test]
    fn same_origin_overlapping_puts_warn_vpce101() {
        let mut t = two_rank_trace();
        t.op(1, op(AccessKind::Put, 0, 0, 0, 4));
        t.op(1, op(AccessKind::Put, 0, 0, 2, 4));
        t.sync_all(SyncKind::Fence);
        let r = check(&t);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].code, Code::SameOriginOverlap);
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn same_origin_put_get_overlap_warns_vpce102() {
        // Rank 1 PUTs to shard 0 and GETs an overlapping region from
        // shard 0 in the same epoch.
        let mut t = two_rank_trace();
        t.op(1, op(AccessKind::Put, 0, 0, 0, 4));
        t.op(1, op(AccessKind::Get, 0, 0, 2, 4));
        t.sync_all(SyncKind::Fence);
        let r = check(&t);
        assert!(r
            .diags
            .iter()
            .any(|d| d.code == Code::RedundantOverlap && d.shard == 0));
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn different_windows_never_conflict() {
        let mut t = RmaTrace::new(3, vec!["A".into(), "B".into()]);
        t.op(1, op(AccessKind::Put, 0, 0, 0, 4));
        t.op(2, op(AccessKind::Put, 1, 0, 0, 4));
        t.sync_all(SyncKind::Fence);
        assert!(check(&t).is_clean());
    }

    #[test]
    fn strided_interleaving_is_proved_disjoint() {
        // Evens vs odds: the conservative interval test overlaps, the
        // exact closed form proves disjointness — must stay clean.
        let mut t = RmaTrace::new(3, vec!["A".into()]);
        let mut a = op(AccessKind::Put, 0, 0, 0, 1);
        a.region = Lmad::strided(0, 2, 1 << 30);
        let mut b = op(AccessKind::Put, 0, 0, 0, 1);
        b.region = Lmad::strided(1, 2, 1 << 30);
        t.op(1, a);
        t.op(2, b);
        t.sync_all(SyncKind::Fence);
        assert!(check(&t).is_clean());
    }
}
