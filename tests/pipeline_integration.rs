//! End-to-end correctness: each paper workload, compiled through the
//! full Polaris pipeline and executed on the simulated cluster, must
//! reproduce its native Rust reference exactly — at every granularity,
//! both schedules, and several cluster sizes.

use spmd_rt::FaultSpec;
use vpce::{
    compile, run_experiment, BackendOptions, ClusterConfig, ExecMode, Granularity, Schedule,
    Tracer,
};
use vpce_workloads::{cfft, max_abs_diff, mm, swim};

fn array<'a>(exp: &'a vpce::Experiment, name: &str) -> &'a [f64] {
    let idx = exp
        .compiled
        .program
        .arrays
        .iter()
        .position(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no array {name}"));
    &exp.parallel.arrays[idx]
}

fn run(
    source: &str,
    params: &[(&str, i64)],
    nprocs: usize,
    g: Granularity,
) -> vpce::Experiment {
    let cluster = ClusterConfig::paper_n(nprocs);
    run_experiment(
        source,
        params,
        &cluster,
        &BackendOptions::new(nprocs).granularity(g),
        ExecMode::Full,
    )
    .expect("pipeline failed")
}

/// Dot product with dyadic values: exact under any accumulation order.
const DOT: &str = r"
      PROGRAM DOT
      PARAMETER (N = 64)
      REAL A(N), B(N)
      REAL S
      INTEGER I
      DO I = 1, N
        A(I) = REAL(I) / 4.0
        B(I) = 2.0
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I) * B(I)
      ENDDO
      END
";

// ---------------------------------------------------------------- MM

#[test]
fn mm_matches_reference_all_granularities() {
    let n = 24usize;
    let (_, _, c_ref) = mm::reference(n);
    for g in Granularity::ALL {
        let exp = run(mm::SOURCE, &[("N", n as i64)], 4, g);
        let diff = max_abs_diff(array(&exp, "C"), &c_ref);
        assert!(diff < 1e-12, "{g:?}: max diff {diff}");
        // And the sequential interpreter agrees too.
        assert_eq!(exp.parallel.arrays, exp.sequential.arrays, "{g:?}");
    }
}

#[test]
fn mm_matches_reference_across_cluster_sizes() {
    let n = 16usize;
    let (_, _, c_ref) = mm::reference(n);
    for p in [1, 2, 3, 4, 6, 8] {
        let exp = run(mm::SOURCE, &[("N", n as i64)], p, Granularity::Coarse);
        assert!(
            max_abs_diff(array(&exp, "C"), &c_ref) < 1e-12,
            "wrong result on {p} ranks"
        );
    }
}

#[test]
fn mm_cyclic_schedule_also_correct() {
    let n = 20usize;
    let (_, _, c_ref) = mm::reference(n);
    for g in Granularity::ALL {
        let cluster = ClusterConfig::paper_n(4);
        let exp = run_experiment(
            mm::SOURCE,
            &[("N", n as i64)],
            &cluster,
            &BackendOptions::new(4).granularity(g).schedule(Schedule::Cyclic),
            ExecMode::Full,
        )
        .unwrap();
        assert!(
            max_abs_diff(array(&exp, "C"), &c_ref) < 1e-12,
            "cyclic {g:?} wrong"
        );
    }
}

#[test]
fn mm_compiles_with_two_parallel_regions() {
    let compiled = compile(mm::SOURCE, &[], &BackendOptions::new(4)).unwrap();
    let regions: Vec<_> = compiled.program.regions().collect();
    assert_eq!(regions.len(), 2, "init + multiply");
}

// -------------------------------------------------------------- CFFT

#[test]
fn cfft_matches_reference_all_granularities() {
    let m = 6;
    let (w_ref, winv_ref) = cfft::reference(m as u32);
    for g in Granularity::ALL {
        let exp = run(cfft::SOURCE, &[("M", m)], 4, g);
        assert!(max_abs_diff(array(&exp, "W"), &w_ref) < 1e-12, "{g:?} W");
        assert!(
            max_abs_diff(array(&exp, "WINV"), &winv_ref) < 1e-12,
            "{g:?} WINV"
        );
    }
}

#[test]
fn cfft_fine_plans_use_strided_messages() {
    // The §2.2/§5.6 story: stride-2 writes become strided PUTs at fine
    // grain and contiguous (redundant) PUTs at middle grain.
    let fine = compile(
        cfft::SOURCE,
        &[("M", 6)],
        &BackendOptions::new(4).granularity(Granularity::Fine),
    )
    .unwrap();
    let middle = compile(
        cfft::SOURCE,
        &[("M", 6)],
        &BackendOptions::new(4).granularity(Granularity::Middle),
    )
    .unwrap();
    let fine_region = fine.program.regions().next().unwrap();
    let mid_region = middle.program.regions().next().unwrap();
    assert!(
        fine_region.collect.strided_messages() > 0,
        "fine grain must use stride PUT/GET"
    );
    assert_eq!(
        mid_region.collect.strided_messages(),
        0,
        "middle grain converts to contiguous"
    );
    // Middle moves ~2x the payload of fine (50% redundancy).
    let f = fine_region.collect.total_elems() as f64;
    let m = mid_region.collect.total_elems() as f64;
    assert!((1.5..=2.2).contains(&(m / f)), "redundancy ratio {}", m / f);
}

// -------------------------------------------------------------- SWIM

#[test]
fn swim_matches_reference_all_granularities() {
    let n = 16usize;
    let r = swim::reference(n);
    for g in Granularity::ALL {
        let exp = run(swim::SOURCE, &[("N", n as i64)], 4, g);
        for (name, want) in [
            ("U", &r.u),
            ("V", &r.v),
            ("P", &r.p),
            ("CU", &r.cu),
            ("CV", &r.cv),
            ("Z", &r.z),
            ("H", &r.h),
            ("UNEW", &r.unew),
            ("VNEW", &r.vnew),
            ("PNEW", &r.pnew),
        ] {
            let diff = max_abs_diff(array(&exp, name), want);
            assert!(diff < 1e-10, "{g:?} {name}: max diff {diff}");
        }
    }
}

#[test]
fn swim_parallelizes_all_four_loops() {
    let compiled = compile(swim::SOURCE, &[], &BackendOptions::new(4)).unwrap();
    assert_eq!(compiled.program.regions().count(), 4);
}

#[test]
fn swim_avpg_elides_redundant_scatters() {
    let with = compile(swim::SOURCE, &[("N", 32)], &BackendOptions::new(4)).unwrap();
    let without = compile(
        swim::SOURCE,
        &[("N", 32)],
        &BackendOptions::new(4).avpg(false),
    )
    .unwrap();
    assert!(
        with.report.elisions.scatters_elided > 0,
        "U/V/P re-reads across CALC1→CALC2 should be elided"
    );
    assert_eq!(without.report.elisions.scatters_elided, 0);
    let (with_msgs, with_elems) = with.program.comm_summary();
    let (wo_msgs, wo_elems) = without.program.comm_summary();
    assert!(with_msgs < wo_msgs, "AVPG reduces messages: {with_msgs} vs {wo_msgs}");
    assert!(with_elems < wo_elems, "AVPG reduces volume");
}

#[test]
fn swim_avpg_off_still_correct() {
    let n = 16usize;
    let r = swim::reference(n);
    let cluster = ClusterConfig::paper_n(4);
    let exp = run_experiment(
        swim::SOURCE,
        &[("N", n as i64)],
        &cluster,
        &BackendOptions::new(4).avpg(false),
        ExecMode::Full,
    )
    .unwrap();
    assert!(max_abs_diff(array(&exp, "P"), &r.p) < 1e-10);
}

// ------------------------------------------------------ cross checks

/// One traced run: the report, or the typed error's text, and the
/// Chrome-trace bytes.
fn traced(
    prog: &vpce::SpmdProgram,
    cluster: &ClusterConfig,
    mode: ExecMode,
    faults: &FaultSpec,
) -> (Result<vpce::RunReport, String>, String) {
    let tracer = Tracer::enabled();
    let rep = spmd_rt::try_execute_traced(prog, cluster, mode, tracer.clone(), faults.clone());
    (rep.map_err(|e| e.to_string()), tracer.to_chrome_json())
}

#[test]
fn analytic_and_full_mode_agree_on_time_and_traffic() {
    // The two modes differ in what they compute and in what they
    // store — `Analytic` slaves have length-only windows — and in
    // nothing else: every virtual time, every per-rank and network
    // counter, the conflict ledger and the trace, event for event.
    // Exactly: both modes charge the same half-integer cycle counts
    // (see `spmd_rt::lowered`), and these workloads have no branch for
    // `Analytic` to approximate. Pull scatters make length-only shards
    // GET sources; the heavy schedule retransmits eager payloads out
    // of slots nothing was staged into.
    let cluster = ClusterConfig::paper_n(4);
    let mut retransmits = 0;
    for (src, params) in [
        (mm::SOURCE, vec![("N", 24i64)]),
        (cfft::SOURCE, vec![("M", 6)]),
        (swim::SOURCE, vec![("N", 16)]),
    ] {
        for g in Granularity::ALL {
            for pull in [false, true] {
                let opts = BackendOptions::new(4).granularity(g).pull(pull);
                let prog = compile(src, &params, &opts).unwrap().program;
                for faults in [FaultSpec::off(), FaultSpec { seed: 7, ..FaultSpec::heavy() }] {
                    let row = format!("{} {g:?} pull={pull} faults={}", prog.name, !faults.is_off());
                    let (full, full_trace) = traced(&prog, &cluster, ExecMode::Full, &faults);
                    let (ana, ana_trace) = traced(&prog, &cluster, ExecMode::Analytic, &faults);
                    assert_eq!(full_trace, ana_trace, "{row}: trace bytes");
                    match (full, ana) {
                        (Ok(full), Ok(ana)) => {
                            assert_eq!(full.elapsed, ana.elapsed, "{row}");
                            assert_eq!(full.comm_time, ana.comm_time, "{row}");
                            assert_eq!(full.boundaries, ana.boundaries, "{row}");
                            assert_eq!(full.rank_stats, ana.rank_stats, "{row}");
                            assert_eq!(full.net, ana.net, "{row}");
                            assert_eq!(full.rma_conflicts, ana.rma_conflicts, "{row}");
                            let lens = |r: &vpce::RunReport| r.arrays.iter().map(Vec::len).collect::<Vec<_>>();
                            assert_eq!(lens(&full), lens(&ana), "{row}: array lengths");
                            retransmits += ana.net.retransmits;
                        }
                        (full, ana) => assert_eq!(full.err(), ana.err(), "{row}: same typed failure"),
                    }
                }
            }
        }
    }
    assert!(retransmits > 0, "the heavy rows must exercise retransmission");
}

#[test]
fn lock_reductions_run_in_analytic_mode_with_the_same_traffic() {
    // The accumulator window stays backed on every rank, so the §3
    // lock bracket runs unchanged. Passive-target epochs are granted in
    // OS-scheduling order (see `Mpi::win_lock`), so what is compared is
    // what that order cannot move: the traffic.
    let cluster = ClusterConfig::paper_n(4);
    let prog = compile(DOT, &[], &BackendOptions::new(4).lock_reductions(true)).unwrap().program;
    let full = vpce::execute(&prog, &cluster, ExecMode::Full);
    let ana = vpce::execute(&prog, &cluster, ExecMode::Analytic);
    let traffic = |r: &vpce::RunReport| {
        let per_rank: Vec<_> = r
            .rank_stats
            .iter()
            .map(|s| (s.bytes_put, s.bytes_got, s.rma_contiguous, s.rma_strided, s.fences, s.barriers))
            .collect();
        (per_rank, r.net.p2p_messages, r.net.p2p_bytes, r.net.broadcasts, r.boundaries.len())
    };
    assert_eq!(traffic(&full), traffic(&ana));
    assert!(full.rank_stats[1].bytes_put > 0, "slaves accumulate under the lock");
}

#[test]
fn pipeline_is_deterministic() {
    let go = || {
        let exp = run(mm::SOURCE, &[("N", 16)], 4, Granularity::Fine);
        (
            exp.parallel.elapsed,
            exp.parallel.comm_time,
            exp.parallel.arrays.clone(),
        )
    };
    let a = go();
    let b = go();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

// ------------------------------------------------- subroutine inlining

#[test]
fn swim_with_subroutines_matches_flat_swim() {
    // The same physics written with CALC1/CALC2 as SUBROUTINEs (like
    // the real SPEC code) must compile — via the §3 inliner — to a
    // program computing identical values.
    let n = 16i64;
    let flat = run(swim::SOURCE, &[("N", n)], 4, Granularity::Coarse);
    let subs = run(swim::SOURCE_SUBROUTINES, &[("N", n)], 4, Granularity::Coarse);
    for name in ["U", "V", "P", "CU", "CV", "Z", "H", "UNEW", "VNEW", "PNEW"] {
        let diff = max_abs_diff(array(&flat, name), array(&subs, name));
        assert!(diff < 1e-12, "{name}: {diff}");
    }
    // And the loops inside the subroutines were parallelized.
    assert_eq!(subs.compiled.program.regions().count(), 4);
}

#[test]
fn inlined_subroutine_overrides_size_through_the_argument() {
    // N reaches CALC1/CALC2 as an argument, so a PARAMETER override on
    // the main program rescales everything.
    let exp = run(swim::SOURCE_SUBROUTINES, &[("N", 24)], 2, Granularity::Fine);
    assert_eq!(exp.compiled.program.arrays[0].1, 24 * 24);
    let r = swim::reference(24);
    assert!(max_abs_diff(array(&exp, "P"), &r.p) < 1e-10);
}

// ------------------------------------------- one-sided design choices

#[test]
fn pull_scatter_same_results_less_master_load() {
    // GET-based scattering: identical data, but the per-message host
    // setup runs on the slaves in parallel instead of serialising on
    // the master.
    let n = 20usize;
    let (_, _, c_ref) = mm::reference(n);
    let cluster = ClusterConfig::paper_n(4);
    let push = run_experiment(
        mm::SOURCE,
        &[("N", n as i64)],
        &cluster,
        &BackendOptions::new(4),
        ExecMode::Full,
    )
    .unwrap();
    let pull = run_experiment(
        mm::SOURCE,
        &[("N", n as i64)],
        &cluster,
        &BackendOptions::new(4).pull(true),
        ExecMode::Full,
    )
    .unwrap();
    assert!(max_abs_diff(array(&push, "C"), &c_ref) < 1e-12);
    assert!(max_abs_diff(array(&pull, "C"), &c_ref) < 1e-12);
    // Master host-side communication cost drops under pull.
    let push_master = push.parallel.rank_stats[0].comm_host;
    let pull_master = pull.parallel.rank_stats[0].comm_host;
    assert!(
        pull_master < push_master,
        "pull should unload the master: {pull_master} vs {push_master}"
    );
    // And the GET counters show who moved the data.
    assert!(pull.parallel.rank_stats[1].bytes_got > 0);
    assert_eq!(push.parallel.rank_stats[1].bytes_got, 0);
}

#[test]
fn pull_scatter_faster_when_scatter_message_bound() {
    // Fine-grain SWIM floods the master with setups; pulling them
    // from 3 slaves in parallel must shorten the critical path.
    let cluster = ClusterConfig::paper_n(4);
    let time = |pull: bool| {
        let compiled = compile(
            swim::SOURCE,
            &[("N", 128)],
            &BackendOptions::new(4).pull(pull),
        )
        .unwrap();
        vpce::execute(&compiled.program, &cluster, ExecMode::Analytic).comm_time
    };
    let push_t = time(false);
    let pull_t = time(true);
    assert!(
        pull_t < push_t,
        "pull {pull_t} should beat push {push_t} in the setup-bound regime"
    );
}

#[test]
fn lock_based_reductions_compute_the_same_sum() {
    // §3: "locks are useful for establishing critical sections where
    // global operations using shared variables, such as reduction
    // operations, are performed." Dot product with dyadic values is
    // exact under any accumulation order.
    let cluster = ClusterConfig::paper_n(4);
    let s_value = |lock: bool| {
        let exp = run_experiment(
            DOT,
            &[],
            &cluster,
            &BackendOptions::new(4).lock_reductions(lock),
            ExecMode::Full,
        )
        .unwrap();
        let slot = exp
            .compiled
            .program
            .scalars
            .iter()
            .position(|(n, _)| n == "S")
            .unwrap();
        exp.parallel.scalars[slot].as_real()
    };
    let expected: f64 = (1..=64).map(|i| i as f64 / 4.0 * 2.0).sum();
    assert_eq!(s_value(false), expected, "collective reduction");
    assert_eq!(s_value(true), expected, "lock-based reduction");
}

#[test]
fn irregular_gather_parallelizes_conservatively_and_matches_reference() {
    // §2.2: one-sided communication "may also help the compiler to
    // simplify code generation for … irregular computations". The
    // A(IDX(I)) subscript defeats LMAD analysis, so A degrades to a
    // conservative whole-array ReadOnly region — but the loop still
    // runs in parallel and the results are exact.
    use vpce_workloads::irregular;
    let n = 64usize;
    let (a_ref, idx_ref, b_ref) = irregular::reference(n);
    for g in Granularity::ALL {
        let exp = run(irregular::SOURCE, &[("N", n as i64)], 4, g);
        assert!(max_abs_diff(array(&exp, "A"), &a_ref) < 1e-12);
        assert!(max_abs_diff(array(&exp, "B"), &b_ref) < 1e-12, "{g:?}");
        let idx_f: Vec<f64> = idx_ref.iter().map(|&v| v as f64).collect();
        assert!(max_abs_diff(array(&exp, "IDX"), &idx_f) < 1e-12);
    }
    // Both loops (init and gather) parallelised.
    let compiled = compile(
        irregular::SOURCE,
        &[("N", n as i64)],
        &BackendOptions::new(4),
    )
    .unwrap();
    assert_eq!(compiled.program.regions().count(), 2);
    // The gather region scatters ALL of A to every slave (the
    // conservative whole-array read).
    let gather = compiled.program.regions().nth(1).unwrap();
    for r in 1..4 {
        let a_bytes: u64 = gather.scatter.per_rank[r]
            .iter()
            .filter(|op| op.array == 0)
            .map(|op| op.descriptor.total_elems())
            .sum();
        assert!(a_bytes >= n as u64, "rank {r} must receive all of A");
    }
}

#[test]
fn swim_full_three_time_levels_match_reference() {
    // The complete 13-array shallow-water step, including CALC3's
    // ReadWrite time smoothing (UOLD/VOLD/POLD read and rewritten in
    // place).
    use vpce_workloads::swim_full;
    let n = 16usize;
    let r = swim_full::reference(n);
    for g in [Granularity::Fine, Granularity::Coarse] {
        let exp = run(swim_full::SOURCE, &[("N", n as i64)], 4, g);
        for (name, want) in [
            ("U", &r.u),
            ("V", &r.v),
            ("P", &r.p),
            ("UOLD", &r.uold),
            ("VOLD", &r.vold),
            ("POLD", &r.pold),
            ("UNEW", &r.unew),
            ("CU", &r.cu),
            ("Z", &r.z),
            ("H", &r.h),
        ] {
            let diff = max_abs_diff(array(&exp, name), want);
            assert!(diff < 1e-10, "{g:?} {name}: {diff}");
        }
    }
    // All four loop nests parallelise, CALC3's arrays classify
    // ReadWrite (scatter + collect both present for UOLD). Compile
    // with the AVPG off: with it on, the scatter is (correctly!)
    // elided because each slave still holds its own fresh UOLD chunk
    // from the init region.
    let compiled = compile(
        swim_full::SOURCE,
        &[("N", n as i64)],
        &BackendOptions::new(4).avpg(false),
    )
    .unwrap();
    assert_eq!(compiled.program.regions().count(), 4);
    let calc3 = compiled.program.regions().nth(3).unwrap();
    let uold = compiled
        .program
        .arrays
        .iter()
        .position(|(n, _)| n == "UOLD")
        .unwrap();
    let scattered: u64 = calc3.scatter.per_rank[1]
        .iter()
        .filter(|op| op.array == uold)
        .map(|op| op.descriptor.total_elems())
        .sum();
    let collected: u64 = calc3.collect.per_rank[1]
        .iter()
        .filter(|op| op.array == uold)
        .map(|op| op.descriptor.total_elems())
        .sum();
    assert!(scattered > 0, "ReadWrite UOLD must be scattered");
    assert!(collected > 0, "ReadWrite UOLD must be collected");
}

// ------------------------------------------------ the executable form

#[test]
fn mixed_type_scalar_assignments_agree_on_every_rank() {
    // `K = 7.9` and `X = 1` store across types. A store converts to the
    // slot's declared type on every rank; before it did, the master held
    // R(7.9) and I(1) (so `X/2` was an integer division there) while the
    // broadcast re-tagged the slaves' copies by declared type.
    const MIXED: &str = "
      PROGRAM T
      PARAMETER (N = 64)
      REAL A(N), B(N), X
      INTEGER I, K
      X = 1
      K = 7.9
      DO I = 1, N
        B(I) = REAL(I)
      ENDDO
      DO I = 1, N
        A(I) = B(I) * X / 2 + K
      ENDDO
      END
";
    let want: Vec<f64> = (1..=64).map(|i| i as f64 / 2.0 + 7.0).collect();
    for nprocs in [1, 2, 4] {
        let exp = run(MIXED, &[], nprocs, Granularity::Coarse);
        assert_eq!(exp.parallel.arrays, exp.sequential.arrays, "{nprocs} ranks");
        assert_eq!(array(&exp, "A"), want, "{nprocs} ranks");
    }
}

#[test]
fn mm_inner_statement_lowers_to_its_minimal_shape() {
    use spmd_rt::lowered::{lower, IExpr, RBin, RExpr, Residual, SExpr, Stmt};

    // C(I,J) = C(I,J) + A(I,K) * B(K,J): one store, three loads, four
    // subscripts folded to one affine node each, one multiply, one add —
    // and nothing else. A conversion node or an unfolded subscript here
    // is a per-iteration cost on the hottest statement of Table 1.
    let compiled = compile(mm::SOURCE, &[("N", 16)], &BackendOptions::new(4)).unwrap();
    let program = &compiled.program;
    let mut stmts = &lower(&program.sequential, &program.scalars).stmts;
    let mut innermost = None;
    while let Some(Stmt::Loop { body, .. }) = stmts.iter().rfind(|s| matches!(s, Stmt::Loop { .. }))
    {
        stmts = &body.block.stmts;
        innermost = Some(body);
    }
    let innermost = innermost.expect("MM has loops");
    let [Stmt::StoreArray { index, value, .. }] = &innermost.block.stmts[..] else {
        panic!("innermost body is one array store: {innermost:?}");
    };

    let over_two_scalars = |e: &IExpr| matches!(e, IExpr::Affine(a) if a.terms.len() == 2);
    let load = |e: &RExpr| matches!(e, RExpr::Load { index, .. } if over_two_scalars(index));
    assert!(over_two_scalars(index), "{index:?}");
    let RExpr::Bin(RBin::Add, c, product) = value else { panic!("{value:?}") };
    let RExpr::Bin(RBin::Mul, a, b) = &**product else { panic!("{product:?}") };
    assert!(load(c) && load(a) && load(b), "{value:?}");

    // As a stream: those four subscripts are four cursors — C's two
    // loop-invariant, A(I,K) striding a column per trip, B(K,J) an
    // element — and the statement is a fold into C(I,J) whose term is
    // the product of A and B read in place: nothing is hoisted into a
    // buffer and no scratch is needed.
    let stream = innermost.stream.as_ref().expect("MM's inner loop is a stream");
    let n = 16;
    let strides: Vec<i64> = stream.cursors.iter().map(|c| c.k_var).collect();
    assert_eq!(strides, [0, 0, n, 1], "{:?}", stream.cursors);
    assert!(stream.hoisted.is_empty() && stream.scratch == 0, "{stream:?}");
    let Residual::Fold { cursor: 0, op: RBin::Add, term: SExpr::Bin(RBin::Mul, a, b), .. } =
        &stream.residual
    else {
        panic!("{:?}", stream.residual)
    };
    assert!(
        matches!((&**a, &**b), (SExpr::Load { cursor: 2, .. }, SExpr::Load { cursor: 3, .. })),
        "{:?}",
        stream.residual
    );
}

/// Every innermost loop of the evaluated workloads runs as a stream;
/// a body that stops qualifying (a subscript that no longer folds, a
/// conversion left in integer position) is a per-trip tree walk on a
/// hot loop and fails here by name.
#[test]
fn every_innermost_workload_loop_has_a_stream_form() {
    use spmd_rt::lowered::{lower, Block, Stmt};
    use vpce_workloads::{irregular, swim_full};

    /// `(loop variable, has a stream)` per innermost loop, in program
    /// order.
    fn innermost(block: &Block, scalars: &[(String, bool)], out: &mut Vec<(String, bool)>) {
        for s in &block.stmts {
            match s {
                Stmt::Loop { body, .. } => {
                    let before = out.len();
                    innermost(&body.block, scalars, out);
                    if out.len() == before {
                        out.push((scalars[body.var].0.clone(), body.stream.is_some()));
                    }
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    innermost(then_body, scalars, out);
                    innermost(else_body, scalars, out);
                }
                _ => {}
            }
        }
    }
    let loops = |source: &str| {
        let program = compile(source, &[], &BackendOptions::new(4)).unwrap().program;
        let mut out = Vec::new();
        innermost(&lower(&program.sequential, &program.scalars), &program.scalars, &mut out);
        out
    };
    let all = |var: &str, n: usize| vec![(var.to_string(), true); n];

    assert_eq!(loops(mm::SOURCE), [all("J", 1), all("K", 1)].concat());
    assert_eq!(loops(swim::SOURCE), all("I", 4));
    assert_eq!(loops(swim_full::SOURCE), all("I", 4));
    assert_eq!(loops(cfft::SOURCE), all("I", 1));
    // The two exceptions, both in `irregular` (lines of `SOURCE`):
    //   line 9, `IDX(I) = MOD(I * 7, N) + 1` — INTEGER `MOD` can raise
    //     (division by zero), so its trips must run one at a time;
    //   line 12, `B(I) = A(IDX(I)) * 2.0` — the gather: a subscript
    //     loaded from memory is not affine in anything.
    assert_eq!(
        loops(irregular::SOURCE),
        [("I".to_string(), false), ("I".to_string(), false)]
    );
}

/// MM's product nest — `DO I / DO J / { C(I,J) = 0.0 ; DO K: C(I,J) =
/// C(I,J) + A(I,K) * B(K,J) }` — has the lane form under `DO I`, in the
/// sequential reference and in the rank body alike, and the fold's
/// parent `DO J` has the two-loop one beside it. Nothing else in MM
/// (the fill stores two arrays and folds nothing) or in `irregular`
/// has one: a nest form that stops appearing is MM's per-element fold
/// coming back on Table 1's hottest loop.
#[test]
fn mm_product_nest_has_a_nest_form_and_irregular_loops_do_not() {
    use spmd_rt::ir::{Block as IrBlock, Expr, Instr};
    use spmd_rt::lowered::{lower, Block, Stmt};
    use vpce_workloads::irregular;

    /// `(loop variable, loops in its nest)` per loop with a nest form,
    /// outermost first.
    fn nests(block: &Block, scalars: &[(String, bool)], out: &mut Vec<(String, usize)>) {
        for s in &block.stmts {
            if let Stmt::Loop { body, .. } = s {
                if let Some(nest) = &body.nest {
                    out.push((scalars[body.var].0.clone(), 1 + nest.levels.len()));
                }
                nests(&body.block, scalars, out);
            }
        }
    }
    let of = |source: &str| {
        let program = compile(source, &[("N", 16)], &BackendOptions::new(4)).unwrap().program;
        let scalars = &program.scalars;
        let mut sequential = Vec::new();
        nests(&lower(&program.sequential, scalars), scalars, &mut sequential);
        // A rank runs a region's body as the loop `lower` makes of it.
        let mut ranks = Vec::new();
        for block in &program.blocks {
            if let IrBlock::Parallel(r) = block {
                let whole = Instr::Loop {
                    var: r.var,
                    lo: Expr::IConst(r.lo),
                    hi: Expr::IConst(r.lo + r.step * (r.trips as i64 - 1)),
                    step: r.step,
                    body: r.body.to_vec(),
                };
                nests(&lower(&[whole], scalars), scalars, &mut ranks);
            }
        }
        (sequential, ranks)
    };
    let mm_nests = vec![("I".to_string(), 3), ("J".to_string(), 2)];
    assert_eq!(of(mm::SOURCE), (mm_nests.clone(), mm_nests));
    assert_eq!(of(irregular::SOURCE), (Vec::new(), Vec::new()));
}
