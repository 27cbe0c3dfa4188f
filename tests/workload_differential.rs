//! Seeded differential testing of the paper workloads: MM and SWIM,
//! compiled through the full pipeline, executed SPMD on the simulated
//! cluster over *randomly drawn* configurations (problem size, cluster
//! size, granularity, schedule), must agree bit-for-bit with the
//! sequential interpreter and match the native Rust references.
//!
//! The configurations come from the testkit's deterministic choice
//! stream, so every run covers the same configurations, and a failure
//! prints the seed that reproduces it (`VPCE_TESTKIT_SEED=…`).
//!
//! The suite is also the end-to-end wall around the eager/rendezvous
//! transport: real workloads (not synthetic transfer lists) must stay
//! byte-identical to the sequential oracle no matter which protocol
//! carried each transfer, under chaos schedules, and with reports and
//! traces that replay identically.

use spmd_rt::FaultSpec;
use vpce::{
    compile, BackendOptions, ClusterConfig, ExecMode, Granularity, Schedule, Tracer,
};
use vpce_testkit::prelude::*;
use vpce_workloads::{cfft, idx2, irregular, max_abs_diff, mm, swim, swim_full};

/// A randomly drawn execution configuration.
#[derive(Debug, Clone)]
struct Config {
    n: usize,
    nprocs: usize,
    g: Granularity,
    cyclic: bool,
}

fn arb_config(n_lo: usize, n_hi: usize) -> Gen<Config> {
    zip4(
        usize_in(n_lo, n_hi),
        usize_in(1, 6),
        elem_of(vec![
            Granularity::Fine,
            Granularity::Middle,
            Granularity::Coarse,
        ]),
        bool_any(),
    )
    .map(|(n, nprocs, g, cyclic)| Config {
        n,
        nprocs,
        g,
        cyclic,
    })
}

/// Compile `source` under `cfg`, run it both ways, and require the
/// parallel SPMD execution to equal the sequential interpretation
/// exactly. Returns the compiled program's arrays for reference
/// checks, keyed by name.
/// Final array contents keyed by name.
type NamedArrays = Vec<(String, Vec<f64>)>;

fn run_both(source: &str, cfg: &Config) -> Result<(NamedArrays, spmd_rt::RunReport), PropError> {
    run_both_sized(source, "N", cfg)
}

/// [`run_both`] for a workload whose size parameter is `param`.
fn run_both_sized(
    source: &str,
    param: &str,
    cfg: &Config,
) -> Result<(NamedArrays, spmd_rt::RunReport), PropError> {
    let mut opts = BackendOptions::new(cfg.nprocs).granularity(cfg.g);
    if cfg.cyclic {
        opts = opts.schedule(Schedule::Cyclic);
    }
    let compiled = compile(source, &[(param, cfg.n as i64)], &opts)
        .map_err(|e| PropError::fail(format!("compile failed under {cfg:?}: {e}")))?;
    let cluster = ClusterConfig::paper_n(cfg.nprocs);
    let par = spmd_rt::execute(&compiled.program, &cluster, ExecMode::Full);
    let seq =
        spmd_rt::execute_sequential(&compiled.program, &cluster.node.cpu, ExecMode::Full);
    if !spmd_rt::same_bits(&par.arrays, &seq.arrays) {
        return Err(PropError::fail(format!(
            "parallel and sequential arrays diverge under {cfg:?}"
        )));
    }
    let arrays = compiled
        .program
        .arrays
        .iter()
        .zip(&par.arrays)
        .map(|((name, _), data)| (name.clone(), data.clone()))
        .collect();
    Ok((arrays, par))
}

fn named<'a>(arrays: &'a [(String, Vec<f64>)], name: &str) -> &'a [f64] {
    &arrays
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no array {name}"))
        .1
}

#[test]
fn mm_differential_over_random_configs() {
    Check::new("workloads::mm_differential_over_random_configs")
        .cases(10)
        .run(&arb_config(8, 24), |cfg| {
            let (arrays, _) = run_both(mm::SOURCE, cfg)?;
            let (_, _, c_ref) = mm::reference(cfg.n);
            let diff = max_abs_diff(named(&arrays, "C"), &c_ref);
            prop_assert!(diff < 1e-12, "{:?}: max diff {} vs reference", cfg, diff);
            Ok(())
        });
}

/// The interpreter runs an innermost loop a strip of 64 trips at a time
/// (`spmd_rt::lowered`), reading loads where they live and folding
/// `C(I,J) = C(I,J) + A(I,K) * B(K,J)` trip by trip, in order, over A
/// and B in place. None of that may move a bit: at inner trip counts
/// below, at, just past and at twice-and-a-bit the strip width, block
/// and cyclic, every array of every workload equals its native
/// reference *bit for bit* — a reference that knows nothing of strips,
/// so a slip the parallel and sequential runs share still shows.
#[test]
fn workloads_equal_their_references_on_both_sides_of_the_strip_width() {
    let cfg = |n, nprocs, g, cyclic| Config {
        n,
        nprocs,
        g,
        cyclic,
    };
    use Granularity::{Coarse, Fine, Middle};
    let same = |arrays: &NamedArrays, name: &str, want: &[f64], cfg: &Config| {
        assert!(spmd_rt::same_bits(named(arrays, name), want), "{name} differs from its reference under {cfg:?}");
    };

    let mm_sizes = [(63, 3, Coarse), (64, 4, Fine), (65, 2, Middle), (129, 4, Coarse)];
    for c in mm_sizes.into_iter().flat_map(|(n, p, g)| [false, true].map(|cyclic| cfg(n, p, g, cyclic))) {
        let (arrays, _) = run_both(mm::SOURCE, &c).unwrap();
        let (a, b, want) = mm::reference(c.n);
        same(&arrays, "A", &a, &c);
        same(&arrays, "B", &b, &c);
        same(&arrays, "C", &want, &c);

        // DO K = N, 1, -1: the cursors walk backwards and the fold
        // takes its terms in that order.
        let reversed = mm::SOURCE.replace("DO K = 1, N", "DO K = N, 1, -1");
        assert_ne!(reversed, mm::SOURCE);
        let (arrays, _) = run_both(&reversed, &c).unwrap();
        let mut want = vec![0.0; c.n * c.n];
        for i in 1..=c.n {
            for j in 1..=c.n {
                want[idx2(i, j, c.n)] = (1..=c.n)
                    .rev()
                    .fold(0.0, |s, k| s + a[idx2(i, k, c.n)] * b[idx2(k, j, c.n)]);
            }
        }
        same(&arrays, "C", &want, &c);
    }

    for c in [
        cfg(40, 4, Middle, false),
        cfg(66, 3, Coarse, true),
        cfg(67, 4, Fine, false),
        cfg(132, 2, Coarse, true),
    ] {
        let (arrays, _) = run_both(swim::SOURCE, &c).unwrap();
        let r = swim::reference(c.n);
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
            same(&arrays, name, want, &c);
        }

        let (arrays, _) = run_both(swim_full::SOURCE, &c).unwrap();
        let r = swim_full::reference(c.n);
        for (name, want) in [
            ("U", &r.u),
            ("V", &r.v),
            ("P", &r.p),
            ("UOLD", &r.uold),
            ("VOLD", &r.vold),
            ("POLD", &r.pold),
            ("UNEW", &r.unew),
            ("VNEW", &r.vnew),
            ("PNEW", &r.pnew),
            ("CU", &r.cu),
            ("CV", &r.cv),
            ("Z", &r.z),
            ("H", &r.h),
        ] {
            same(&arrays, name, want, &c);
        }
    }

    // CFFT's one loop is the parallel one: a rank's share of 2^M trips.
    for c in [
        cfg(5, 1, Coarse, false),
        cfg(7, 1, Fine, false),
        cfg(8, 3, Middle, true),
        cfg(9, 4, Fine, false),
    ] {
        let (arrays, _) = run_both_sized(cfft::SOURCE, "M", &c).unwrap();
        let (w, winv) = cfft::reference(c.n as u32);
        same(&arrays, "W", &w, &c);
        same(&arrays, "WINV", &winv, &c);
    }

    // No stream here (an INTEGER `MOD`, a gathered subscript): the
    // per-trip walk next to the streams must be as it was.
    for c in [cfg(63, 2, Fine, false), cfg(200, 4, Coarse, true)] {
        let (arrays, _) = run_both(irregular::SOURCE, &c).unwrap();
        let (a, idx, b) = irregular::reference(c.n);
        same(&arrays, "A", &a, &c);
        same(&arrays, "IDX", &idx.iter().map(|&v| v as f64).collect::<Vec<_>>(), &c);
        same(&arrays, "B", &b, &c);
    }
}

/// Above spmd-rt's one-worker bound (2¹⁶ declared array elements; MM at
/// N = 216 declares 3 · 216² = 139 968) a `Full` run shares its ranks
/// among several workers. The fused fold runs inside whichever worker
/// polls a rank, so one worker and two must give the same report to
/// the bit, and C its native reference's bits, block and cyclic.
#[test]
fn mm_above_the_one_worker_bound_is_the_same_on_one_and_two_workers() {
    let n = 216;
    let (_, _, want) = mm::reference(n);
    let cluster = ClusterConfig::paper_n(4);
    for schedule in [Schedule::Block, Schedule::Cyclic] {
        let opts = BackendOptions::new(4).granularity(Granularity::Coarse).schedule(schedule);
        let prog = compile(mm::SOURCE, &[("N", n as i64)], &opts).unwrap().program;
        let body = spmd_rt::rank_body(&prog, ExecMode::Full, None).unwrap();
        let [one, two] = [1, 2].map(|workers| {
            let out = mpi2::Universe::new(cluster.clone()).run_on(workers, &body).unwrap();
            spmd_rt::RunReport::from_outcome(out)
        });
        // `Debug` prints every field, floats to the bit.
        assert!(format!("{one:?}") == format!("{two:?}"), "{schedule:?}: reports differ");
        let c = prog.arrays.iter().position(|(name, _)| name == "C").unwrap();
        assert!(spmd_rt::same_bits(&one.arrays[c], &want), "{schedule:?}: C differs from its reference");
    }
}

/// One engine, two entries, same bytes. A compiled program runs as
/// resumable rank tasks on the workers `spmd_rt::exec::workers` picks
/// (`Universe::run_on`, what every shipped command uses);
/// the closure entry drives the *same* rank body with `Mpi::block_on`
/// on a thread per rank. The two reports must be equal field for field
/// — times, ledgers, network counters, arrays, scalars, boundaries,
/// conflicts, trace analyses — and the Chrome traces byte for byte.
#[test]
fn task_entry_and_thread_entry_produce_the_same_report() {
    use Granularity::{Coarse, Fine, Middle};
    for (source, param, n) in [
        (mm::SOURCE, "N", 24),
        (swim::SOURCE, "N", 24),
        (cfft::SOURCE, "M", 6),
        (irregular::SOURCE, "N", 40),
    ] {
        for nprocs in [1, 2, 4, 16] {
            for g in [Fine, Middle, Coarse] {
                let opts = BackendOptions::new(nprocs).granularity(g);
                let prog = compile(source, &[(param, n)], &opts).unwrap().program;
                let cluster = ClusterConfig::paper_n(nprocs);
                for mode in [ExecMode::Full, ExecMode::Analytic] {
                    let what = format!("{} {param}={n} on {nprocs} ranks, {g:?}, {mode:?}", prog.name);
                    let (on_tasks, on_threads) = (Tracer::enabled(), Tracer::enabled());
                    let tasks = spmd_rt::try_execute_traced(&prog, &cluster, mode, on_tasks.clone(), FaultSpec::off())
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let body = spmd_rt::rank_body(&prog, mode, None).unwrap();
                    let threads = spmd_rt::RunReport::from_outcome(
                        mpi2::Universe::new(cluster.clone())
                            .with_tracer(on_threads.clone())
                            .run(|mpi| mpi.block_on(&body)),
                    );
                    // `Debug` prints every field, floats to the bit.
                    assert!(format!("{tasks:?}") == format!("{threads:?}"), "{what}: reports differ");
                    assert!(on_tasks.to_chrome_json() == on_threads.to_chrome_json(), "{what}: traces differ");
                }
            }
        }
    }
}

/// Across a deterministic spread of granularities and problem sizes,
/// the paper workloads must light up **both** transport protocols:
/// fine-grain strips stage eager, coarse-grain block rows go
/// rendezvous. If a cost-model change silently re-balances everything
/// onto one path, this trips before any golden diff does — and every
/// config still passed the sequential-oracle check inside `run_both`.
#[test]
fn workload_traffic_exercises_both_protocols() {
    let configs = [
        (
            mm::SOURCE,
            Config {
                n: 8,
                nprocs: 4,
                g: Granularity::Fine,
                cyclic: true,
            },
        ),
        (
            mm::SOURCE,
            Config {
                n: 24,
                nprocs: 2,
                g: Granularity::Coarse,
                cyclic: false,
            },
        ),
        (
            swim::SOURCE,
            Config {
                n: 16,
                nprocs: 4,
                g: Granularity::Middle,
                cyclic: false,
            },
        ),
    ];
    let mut eager = 0u64;
    let mut rdvz = 0u64;
    let mut fallbacks = 0u64;
    for (src, cfg) in &configs {
        let (_, rep) = run_both(src, cfg).expect("config runs clean");
        for s in &rep.rank_stats {
            eager += s.eager_ops;
            rdvz += s.rdvz_ops;
            fallbacks += s.eager_fallbacks;
        }
    }
    assert!(eager > 0, "no workload transfer took the eager path");
    assert!(rdvz > 0, "no workload transfer took the rendezvous path");
    // Fallbacks are rendezvous by another name; they must already be
    // inside the rdvz ledger, never a third bucket.
    assert!(fallbacks <= rdvz, "fallbacks {fallbacks} not counted as rendezvous {rdvz}");
}

/// Chaos differential: under random *survivable* fault schedules the
/// parallel run — eager retransmits replaying from registered slots,
/// rendezvous re-handshakes and all — must still be byte-identical to
/// the fault-free **sequential oracle**, not merely self-consistent.
#[test]
fn chaos_schedules_match_the_sequential_oracle() {
    let opts = BackendOptions::new(4).granularity(Granularity::Fine);
    let compiled = compile(mm::SOURCE, &[("N", 12)], &opts).expect("workload compiles");
    let cluster = ClusterConfig::paper_n(4);
    let seq =
        spmd_rt::execute_sequential(&compiled.program, &cluster.node.cpu, ExecMode::Full);
    let schedule = zip2(u64_in(1, u64::MAX / 2), bool_any()).map(|(seed, heavy)| {
        let base = if heavy {
            FaultSpec::heavy()
        } else {
            FaultSpec::light()
        };
        FaultSpec {
            seed,
            rank_crash: 0.0,
            ..base
        }
    });
    Check::new("workloads::chaos_schedules_match_the_sequential_oracle")
        .cases(20)
        .run(&schedule, |spec| {
            match spmd_rt::try_execute(&compiled.program, &cluster, ExecMode::Full, spec.clone())
            {
                Ok(rep) => {
                    prop_assert!(
                        spmd_rt::same_bits(&rep.arrays, &seq.arrays),
                        "arrays diverge from the sequential oracle under {spec:?}"
                    );
                }
                Err(e) => {
                    prop_assert!(e.is_injected(), "non-injected failure under {spec:?}: {e}");
                }
            }
            Ok(())
        });
}

/// Reports and traces are replay-invariant: the same workload under
/// the same fault schedule renders byte-identical comm/transport
/// report lines, trace analyses, and network counters on every rerun —
/// protocol choice and pool behaviour are functions of the machine
/// model, never of host-thread scheduling.
#[test]
fn reports_and_traces_replay_identically_under_faults() {
    let opts = BackendOptions::new(4).granularity(Granularity::Middle);
    let compiled = compile(swim::SOURCE, &[("N", 12)], &opts).expect("workload compiles");
    let cluster = ClusterConfig::paper_n(4);
    let spec = FaultSpec {
        seed: 7,
        rank_crash: 0.0,
        ..FaultSpec::light()
    };
    let fingerprint = || {
        let rep = spmd_rt::try_execute_traced(
            &compiled.program,
            &cluster,
            ExecMode::Full,
            Tracer::enabled(),
            spec.clone(),
        )
        .expect("light seed-7 schedule is survivable");
        let mut text = vpce::describe_comm(&rep.rank_stats);
        text.push_str(&vpce::report::describe_transport(
            &mpi2::TransportPolicy::from_config(&cluster),
            &rep.rank_stats,
        ));
        text.push_str(&rep.trace.as_ref().expect("tracer was enabled").render());
        text.push_str(&format!("net={:?}", rep.net));
        text
    };
    let a = fingerprint();
    assert_eq!(a, fingerprint(), "report/trace replay diverged");
    assert!(a.contains("protocol split:"), "{a}");
}

#[test]
fn swim_differential_over_random_configs() {
    Check::new("workloads::swim_differential_over_random_configs")
        .cases(6)
        .run(&arb_config(8, 16), |cfg| {
            let (arrays, _) = run_both(swim::SOURCE, cfg)?;
            let r = swim::reference(cfg.n);
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
                let diff = max_abs_diff(named(&arrays, name), want);
                prop_assert!(diff < 1e-10, "{:?} {}: max diff {}", cfg, name, diff);
            }
            Ok(())
        });
}
