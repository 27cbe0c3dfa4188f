//! Chaos property suite — the fault plane's headline invariant.
//!
//! For any *survivable* seeded fault schedule, the MM and SWIM
//! workloads must produce byte-identical arrays and scalars to the
//! fault-free run, with the self-healing machinery (CRC/ack
//! retransmits, V-Bus degradation, NIC retries) visible in the stats
//! ledger. An *unsurvivable* schedule must surface as a typed
//! `VpceError` from `try_execute` — never a panic. Schedules come
//! from the testkit's deterministic choice stream; failures print the
//! reproducing seed, and pinned regressions live in
//! `crates/core/testkit-regressions/`.

use std::cell::Cell;

use spmd_rt::{ExecMode, FaultSpec, VpceError};
use vpce::{compile, BackendOptions, ClusterConfig, Granularity, Tracer};
use vpce_recover::{run_recovering, RecoverSpec};
use vpce_testkit::prelude::*;
use vpce_workloads::{mm, swim};

/// A random transport-fault schedule: light or heavy base rates, a
/// fresh seed, never a rank crash (crashes are unsurvivable by
/// construction and covered separately).
fn arb_schedule() -> Gen<FaultSpec> {
    zip2(u64_in(1, u64::MAX / 2), bool_any()).map(|(seed, heavy)| {
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
    })
}

/// Run `cases` random schedules over one compiled workload and hold
/// the invariant on every one of them.
fn chaos(name: &'static str, source: &str, n: i64, cases: u32) {
    let opts = BackendOptions::new(4).granularity(Granularity::Fine);
    let compiled = compile(source, &[("N", n)], &opts).expect("workload compiles");
    let cluster = ClusterConfig::paper_4node();
    let clean = spmd_rt::execute(&compiled.program, &cluster, ExecMode::Full);
    let survived = Cell::new(0u32);
    let recovered = Cell::new(0u64);
    Check::new(name).cases(cases).run(&arb_schedule(), |spec| {
        match spmd_rt::try_execute(&compiled.program, &cluster, ExecMode::Full, spec.clone()) {
            Ok(rep) => {
                prop_assert!(
                    spmd_rt::same_bits(&rep.arrays, &clean.arrays),
                    "arrays diverge from fault-free run under {spec:?}"
                );
                prop_assert!(
                    spmd_rt::same_bits(&rep.scalars, &clean.scalars),
                    "scalars diverge from fault-free run under {spec:?}"
                );
                survived.set(survived.get() + 1);
                recovered.set(
                    recovered.get()
                        + rep.net.retransmits
                        + rep.net.bus_degraded
                        + rep.net.link_stalls,
                );
            }
            Err(e) => {
                // The bounded retry budget makes genuine transport
                // loss vanishingly rare; whatever does get through
                // must be a typed injected failure, never a panic or
                // a logic error.
                prop_assert!(e.is_injected(), "non-injected failure under {spec:?}: {e}");
            }
        }
        Ok(())
    });
    assert!(
        survived.get() >= cases * 9 / 10,
        "{name}: only {} of {cases} schedules survived",
        survived.get()
    );
    assert!(
        recovered.get() > 0,
        "{name}: no recovery events across {cases} schedules — injection is dead"
    );
}

#[test]
fn mm_survivable_schedules_are_byte_identical() {
    chaos(
        "chaos::mm_survivable_schedules_are_byte_identical",
        mm::SOURCE,
        12,
        120,
    );
}

#[test]
fn swim_survivable_schedules_are_byte_identical() {
    chaos(
        "chaos::swim_survivable_schedules_are_byte_identical",
        swim::SOURCE,
        8,
        120,
    );
}

#[test]
fn crashy_schedules_fail_typed_and_never_panic() {
    let opts = BackendOptions::new(4).granularity(Granularity::Fine);
    let compiled = compile(mm::SOURCE, &[("N", 12)], &opts).expect("workload compiles");
    let cluster = ClusterConfig::paper_4node();
    let clean = spmd_rt::execute(&compiled.program, &cluster, ExecMode::Full);
    let mut crashes = 0;
    for seed in 0..20u64 {
        let spec = FaultSpec {
            seed,
            ..FaultSpec::crashy()
        };
        match spmd_rt::try_execute(&compiled.program, &cluster, ExecMode::Full, spec) {
            Ok(rep) => assert_eq!(rep.arrays, clean.arrays, "seed {seed}"),
            Err(e) => {
                assert!(e.is_injected(), "seed {seed}: {e}");
                crashes += 1;
            }
        }
    }
    assert!(crashes > 0, "crashy never crashed in 20 seeds");
}

// ---------------------------------------------------------------- //
// Recovery matrix — crash schedules that exit 3 without `--recover` //
// must finish byte-identically to the crash-free run with it armed. //
// ---------------------------------------------------------------- //

/// Pinned regression seeds, found by seed scans at the rates below.
/// Each pin freezes one corner of the matrix: a crash schedule the
/// default RecoverSpec absorbs, and one where the crashed rank loses
/// every buddy replica in the same group (VPCE404, unsurvivable).
const MM_SURVIVABLE_SEED: u64 = 2;
const MM_UNSURVIVABLE_SEED: u64 = 0;
const SWIM_SURVIVABLE_SEED: u64 = 0;
const CLI_SURVIVABLE_SEED: u64 = 0;
const CLI_UNSURVIVABLE_SEED: u64 = 9;

/// Crash-only schedule (no transport noise): the recovered run's
/// elapsed time and trace must match the fault-free run bit-for-bit,
/// which only holds when crashes are the sole injected fault.
fn crash_only(rate: &str, seed: u64) -> FaultSpec {
    FaultSpec::parse(&format!("crash={rate},seed={seed}")).expect("crash spec parses")
}

/// Scan `seeds` crash-only schedules over one workload. Every seed
/// that makes the plain run fail must either (a) complete under the
/// default RecoverSpec with report, arrays, scalars, elapsed and trace
/// byte-identical to the fault-free run, or (b) fail fast with a typed
/// VPCE402/403/404 diagnosis — never a panic, never a wrong answer.
/// Returns how many schedules recovered (callers pin a floor).
fn recovery_matrix(name: &str, source: &str, n: i64, rate: &str, seeds: u64) -> u32 {
    let opts = BackendOptions::new(4).granularity(Granularity::Fine);
    let compiled = compile(source, &[("N", n)], &opts).expect("workload compiles");
    let cluster = ClusterConfig::paper_4node();
    let clean = spmd_rt::try_execute_traced(
        &compiled.program,
        &cluster,
        ExecMode::Full,
        Tracer::enabled(),
        FaultSpec::off(),
    )
    .expect("fault-free run succeeds");
    let clean_trace = clean.trace.as_ref().expect("tracer was enabled").render();
    let mut recovered = 0u32;
    for seed in 0..seeds {
        let spec = crash_only(rate, seed);
        if spmd_rt::try_execute(&compiled.program, &cluster, ExecMode::Full, spec.clone()).is_ok() {
            continue; // schedule never fired — not part of the matrix
        }
        match run_recovering(
            &compiled.program,
            &cluster,
            ExecMode::Full,
            Tracer::enabled(),
            spec,
            &RecoverSpec::default(),
        ) {
            Ok((rep, ledger)) => {
                assert_eq!(rep.arrays, clean.arrays, "{name} seed {seed}: arrays diverge");
                assert_eq!(rep.scalars, clean.scalars, "{name} seed {seed}: scalars diverge");
                assert_eq!(
                    rep.elapsed.to_bits(),
                    clean.elapsed.to_bits(),
                    "{name} seed {seed}: recovered elapsed differs from crash-free"
                );
                assert_eq!(
                    rep.trace.as_ref().expect("tracer was enabled").render(),
                    clean_trace,
                    "{name} seed {seed}: recovery leaked events into the run trace"
                );
                assert!(ledger.absorbed(), "{name} seed {seed}: crash vanished from ledger");
                assert!(ledger.respawned > 0, "{name} seed {seed}: no failover recorded");
                // The four time components tile the Recovery charge
                // exactly — that is what the critical path bills.
                let tiled = ledger.ckpt_time
                    + ledger.quiesce_time
                    + ledger.respawn_time
                    + ledger.replay_time;
                assert_eq!(tiled.to_bits(), ledger.recovery_total().to_bits());
                assert!(ledger.recovery_total() > 0.0);
                recovered += 1;
            }
            Err(VpceError::RecoveryFailed { code, .. }) => {
                assert!(
                    matches!(code, "VPCE402" | "VPCE403" | "VPCE404"),
                    "{name} seed {seed}: unknown recovery code {code}"
                );
            }
            Err(e) => panic!("{name} seed {seed}: non-recovery failure {e}"),
        }
    }
    recovered
}

#[test]
fn mm_crashy_schedules_recover_byte_identically() {
    let recovered = recovery_matrix("mm", mm::SOURCE, 12, "0.5", 32);
    assert!(recovered >= 10, "mm: only {recovered} of 32 schedules recovered");
}

#[test]
fn swim_crashy_schedules_recover_byte_identically() {
    let recovered = recovery_matrix("swim", swim::SOURCE, 8, "0.2", 32);
    assert!(recovered >= 10, "swim: only {recovered} of 32 schedules recovered");
}

#[test]
fn exhausted_recovery_budgets_fail_typed_and_never_panic() {
    let opts = BackendOptions::new(4).granularity(Granularity::Fine);
    let compiled = compile(mm::SOURCE, &[("N", 12)], &opts).expect("workload compiles");
    let cluster = ClusterConfig::paper_4node();
    let run = |seed: u64, spec: &RecoverSpec| {
        run_recovering(
            &compiled.program,
            &cluster,
            ExecMode::Full,
            Tracer::disabled(),
            crash_only("0.5", seed),
            spec,
        )
    };
    // The pinned survivable schedule recovers under the defaults...
    let (_, ledger) =
        run(MM_SURVIVABLE_SEED, &RecoverSpec::default()).expect("pinned survivable seed recovers");
    assert!(ledger.absorbed());
    // ...but the same schedule dies typed when a budget binds:
    // rollback budget first (VPCE402), then the spare pool (VPCE403).
    for (spec, want) in [("on,rollbacks=0", "VPCE402"), ("on,spares=0", "VPCE403")] {
        let spec = RecoverSpec::parse(spec).expect("spec parses");
        match run(MM_SURVIVABLE_SEED, &spec) {
            Err(VpceError::RecoveryFailed { code, .. }) => assert_eq!(code, want),
            other => panic!("expected {want}, got {other:?}"),
        }
    }
    // The pinned unsurvivable schedule loses a rank and every buddy
    // replica in one group: no budget can save it (VPCE404).
    match run(MM_UNSURVIVABLE_SEED, &RecoverSpec::default()) {
        Err(e @ VpceError::RecoveryFailed { code, .. }) => {
            assert_eq!(code, "VPCE404");
            assert!(e.is_injected(), "recovery failures count as injected faults");
        }
        other => panic!("expected VPCE404, got {other:?}"),
    }
    // SWIM's pinned survivable seed holds at its (milder) rate too.
    let compiled = compile(swim::SOURCE, &[("N", 8)], &opts).expect("workload compiles");
    run_recovering(
        &compiled.program,
        &cluster,
        ExecMode::Full,
        Tracer::disabled(),
        crash_only("0.2", SWIM_SURVIVABLE_SEED),
        &RecoverSpec::default(),
    )
    .expect("pinned swim seed recovers");
}

#[test]
fn cli_recover_extends_the_fault_free_report_byte_for_byte() {
    const SRC: &str = "PROGRAM CHAOS\nPARAMETER (N = 32)\nREAL A(N)\nINTEGER I\nDO I = 1, N\nA(I) = REAL(I) * 2.0\nENDDO\nEND\n";
    let run = |flags: &str| {
        let argv: Vec<String> = format!("chaos.f --grain fine{flags}")
            .split_whitespace()
            .map(String::from)
            .collect();
        vpce::cli::run(SRC, &vpce::cli::parse_args(&argv).expect("args parse")).expect("runs")
    };
    let clean = run("");
    assert_eq!(clean.exit, 0, "{}", clean.text);
    // The pinned schedule kills the plain run (exit 3)...
    let crashed = run(&format!(" --faults crash=0.5,seed={CLI_SURVIVABLE_SEED}"));
    assert_eq!(crashed.exit, 3, "{}", crashed.text);
    // ...and `--recover on` absorbs it: exit 0 and the fault-free
    // report survives as an exact byte prefix — recovery only appends
    // its ledger, it never perturbs the run's own numbers.
    let recovered = run(&format!(
        " --faults crash=0.5,seed={CLI_SURVIVABLE_SEED} --recover on"
    ));
    assert_eq!(recovered.exit, 0, "{}", recovered.text);
    assert!(
        recovered.text.starts_with(&clean.text),
        "recovered report is not a byte-extension of the fault-free one\n\
         --- clean ---\n{}\n--- recovered ---\n{}",
        clean.text,
        recovered.text
    );
    // An unabsorbable schedule exits 3 with the typed code in the text.
    let lost = run(&format!(
        " --faults crash=0.5,seed={CLI_UNSURVIVABLE_SEED} --recover on"
    ));
    assert_eq!(lost.exit, 3, "{}", lost.text);
    assert!(lost.text.contains("VPCE404"), "{}", lost.text);
    // A zero rollback budget turns the survivable one typed as well.
    let broke = run(&format!(
        " --faults crash=0.5,seed={CLI_SURVIVABLE_SEED} --recover rollbacks=0"
    ));
    assert_eq!(broke.exit, 3, "{}", broke.text);
    assert!(broke.text.contains("VPCE402"), "{}", broke.text);
}

/// The report produced under one fixed fault schedule, golden-pinned.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test -q -p vpce --test
/// chaos_faults`.
#[test]
fn fault_report_matches_golden() {
    const SRC: &str = "PROGRAM CHAOS\nPARAMETER (N = 32)\nREAL A(N)\nINTEGER I\nDO I = 1, N\nA(I) = REAL(I) * 2.0\nENDDO\nEND\n";
    let argv: Vec<String> = "chaos.f --grain fine --faults heavy,seed=3"
        .split_whitespace()
        .map(String::from)
        .collect();
    let args = vpce::cli::parse_args(&argv).expect("args parse");
    let out = vpce::cli::run(SRC, &args).expect("program compiles");
    assert_eq!(out.exit, 0, "{}", out.text);
    assert!(out.text.contains("fault schedule: seed 3"), "{}", out.text);

    let path = format!(
        "{}/../../tests/golden/fault_report.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &out.text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        out.text, want,
        "fault report drifted from golden; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
