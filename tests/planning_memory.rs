//! Deterministic work gate for planning and linting: what
//! `polaris_be::compile_backend` + `rmacheck::lint` request from the
//! allocator grows with the *plan*, not with the arrays it talks about.
//!
//! Own test binary on purpose: it installs the counting allocator as
//! the process-wide `#[global_allocator]`.
//!
//! A plan for MM on 16 ranks is `O(N · ranks)` transfers, so the bytes
//! requested while planning and checking it at size N are
//! `f = a + b·N + c·N²` with `c` = 0 — unless some proof lists a
//! region's *elements*: an `N²/ranks`-element band enumerated once per
//! rank or per partner is an `N²` term. The second difference over N,
//! 2N, 4N cancels `a` and `b` and leaves `6·c·N²`. While the §5.6
//! check, the coverage proofs and the epoch-conflict scan answered
//! through `Lmad::offsets`, `c` read ≈ 10 000 B at fine grain and
//! ≈ 30 000 B at middle grain; deciding by runs (`lmad`'s run algebra)
//! it is a rounding error of `Vec` growth. The gate is a count, not a
//! stopwatch: it cannot flake and it cannot pass while any proof
//! enumerates the larger side of a pair.

use vpce::{compile_backend, compile_frontend, lint, BackendOptions, Granularity, LintOptions};
use vpce_testkit::alloc::CountingAlloc;
use vpce_workloads::mm;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const RANKS: usize = 16;

/// Bytes requested from the allocator while planning MM at size `n`
/// and grain `g` and linting the plan.
fn planning_bytes(n: i64, g: Granularity) -> i64 {
    let analyzed = compile_frontend(mm::SOURCE, &[("N", n)]).unwrap();
    let opts = BackendOptions::new(RANKS).granularity(g);
    let before = ALLOC.allocated_bytes();
    let compiled = compile_backend(&analyzed, &opts);
    let report = lint(&compiled.program, &compiled.report, &LintOptions::default());
    let during = ALLOC.allocated_bytes() - before;
    assert!(report.is_clean(), "{}", report.render_human());
    during as i64
}

/// One test, every grain and every gate in sequence: the counter is
/// process-wide.
#[test]
fn planning_and_lint_cost_nothing_in_n_squared() {
    let n = 64;
    for g in [Granularity::Fine, Granularity::Middle] {
        let [f1, f2, f4] = [n, 2 * n, 4 * n].map(|n| planning_bytes(n, g));
        let c = ((f4 - f2) - 2 * (f2 - f1)) as f64 / (6 * n * n) as f64;
        assert!(
            c <= 256.0,
            "{} grain: bytes requested at N = {n}, {}, {}: {f1}, {f2}, {f4}; \
             their N² coefficient is {c:.0} B (gate: 256)",
            g.name(),
            2 * n,
            4 * n,
        );
    }
    lint_bytes_do_not_grow_with_n();
    planning_bytes_do_not_grow_with_n();
}

/// Bytes requested by `compile_backend` alone for MM at size `n` and
/// grain `g`.
fn backend_bytes(n: i64, g: Granularity) -> u64 {
    let analyzed = compile_frontend(mm::SOURCE, &[("N", n)]).unwrap();
    let before = ALLOC.allocated_bytes();
    let compiled = compile_backend(&analyzed, &BackendOptions::new(RANKS).granularity(g));
    let during = ALLOC.allocated_bytes() - before;
    drop(compiled);
    during
}

/// The planner asks ops, not messages: MM on 16 ranks is a fixed
/// number of ops at every size, so planning requests about the same
/// bytes at N = 64, 256 and 1024 — each grain within 1.5× of its
/// N = 64 bytes. While the §5.6 check, freshness and coherence asked
/// every wire message, middle grain grew 27× over that range (616 811
/// B at N = 64, 16 784 963 B at N = 1024); fine and coarse, which ask
/// none of those questions of a message, stayed within 1.3×.
fn planning_bytes_do_not_grow_with_n() {
    for g in Granularity::ALL {
        let [b1, b4, b16] = [64, 256, 1024].map(|n| backend_bytes(n, g));
        assert!(
            b4.max(b16) * 2 <= b1 * 3,
            "{} grain: planning bytes at N = 64, 256, 1024: {b1}, {b4}, {b16} (gate: within 1.5x of N = 64)",
            g.name(),
        );
    }
}

/// Bytes requested by `rmacheck::lint` alone, and the events of its
/// trace, for MM at size `n` and grain `g`.
fn lint_bytes(n: i64, g: Granularity) -> (i64, usize) {
    let analyzed = compile_frontend(mm::SOURCE, &[("N", n)]).unwrap();
    let compiled = compile_backend(&analyzed, &BackendOptions::new(RANKS).granularity(g));
    let before = ALLOC.allocated_bytes();
    let report = lint(&compiled.program, &compiled.report, &LintOptions::default());
    let during = ALLOC.allocated_bytes() - before;
    assert!(report.is_clean(), "{}", report.render_human());
    let trace = rmacheck::lower(&compiled.program, &compiled.report);
    (during as i64, trace.ranks.iter().map(Vec::len).sum())
}

/// The lint reads a plan op by op: MM on 16 ranks is 60 planned ops
/// at every size, so the trace has the same events at N = 64, 128 and
/// 256 and the lint requests the same bytes — `O(ops)`, no term in N
/// at all, only the rounding of `Vec` growth (129 181 B at each size
/// and grain when this gate was written). With one event per wire
/// message the trace grew with N: 7 423 events at N = 160.
fn lint_bytes_do_not_grow_with_n() {
    for g in [Granularity::Fine, Granularity::Middle] {
        let [(b1, e1), (b2, e2), (b4, e4)] = [64, 128, 256].map(|n| lint_bytes(n, g));
        assert!(e1 == e2 && e2 == e4, "{} grain: events at N = 64, 128, 256: {e1}, {e2}, {e4}", g.name());
        let spread = b1.max(b2).max(b4) - b1.min(b2).min(b4);
        assert!(
            spread <= b1 / 64,
            "{} grain: lint bytes at N = 64, 128, 256: {b1}, {b2}, {b4} (gate: within 1/64)",
            g.name(),
        );
    }
}
