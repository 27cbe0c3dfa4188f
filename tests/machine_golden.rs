//! The machine-description acceptance wall.
//!
//! * **Byte-identity**: running MM and SWIM under
//!   `examples/machines/paper.machine` — in plain, batch and serve
//!   modes — must reproduce the no-`--machine` reports and traces
//!   byte for byte. The declarative config replaces every hard-coded
//!   constant, so any drift here means a lowering bug.
//! * **Calibration**: the example files reproduce the paper's headline
//!   numbers — SKWP signalling carries ~4x the bandwidth of the
//!   conventional clock on the same 16-line cable, and the NIC's
//!   DMA-vs-PIO cost curves cross where the paper's setup-time model
//!   says they must.
//! * **Dump golden**: `--machine-dump` output is pinned byte-for-byte
//!   (regenerate with `UPDATE_GOLDEN=1 cargo test -q -p vpce --test
//!   machine_golden`).

use vpce::cli::{self, parse_args, CliArgs, Outcome};
use vpce_machine::MachineSpec;

fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Load an example machine file the way the binary does: include=
/// names resolve relative to examples/machines/.
fn example_machine(file: &str) -> MachineSpec {
    let loader = |p: &str| -> Result<String, String> {
        std::fs::read_to_string(repo_path(&format!("examples/machines/{p}")))
            .map_err(|e| e.to_string())
    };
    cli::load_machine(file, &loader)
        .unwrap_or_else(|e| panic!("examples/machines/{file}: {e}"))
}

fn with_machine(args: &mut CliArgs, file: &str) {
    args.machine = Some(file.into());
    args.machine_spec = Some(example_machine(file));
}

#[test]
fn paper_machine_file_runs_mm_and_swim_byte_identically() {
    for workload in [vpce_workloads::mm::SOURCE, vpce_workloads::swim::SOURCE] {
        let base_args = parse_args(&argv("x.f --nodes 4 --trace t.json --trace-summary")).unwrap();
        let base = cli::run(workload, &base_args).unwrap();
        assert_eq!(base.outcome, Outcome::Success, "{}", base.text);

        let mut args = base_args.clone();
        with_machine(&mut args, "paper.machine");
        let out = cli::run(workload, &args).unwrap();
        assert_eq!(out.text, base.text, "report must not drift under paper.machine");
        assert_eq!(
            out.trace_json, base.trace_json,
            "trace must not drift under paper.machine"
        );
        assert_eq!(out.exit, 0);
    }
}

#[test]
fn paper_machine_file_keeps_batch_reports_byte_identical() {
    let jobfile = std::fs::read_to_string(repo_path("examples/jobs/storm.jobs")).unwrap();
    let loader = |p: &str| Err::<String, _>(format!("fixture jobfiles are self-contained: `{p}`"));
    let base_args = parse_args(&argv("--batch storm.jobs --sched-seed 1")).unwrap();
    let base = cli::run_batch(&jobfile, &base_args, &loader).unwrap();
    assert_eq!(base.outcome, Outcome::Success, "{}", base.text);

    let mut args = base_args.clone();
    with_machine(&mut args, "paper.machine");
    let out = cli::run_batch(&jobfile, &args, &loader).unwrap();
    assert_eq!(out.text, base.text);
    assert_eq!(out.batch_json, base.batch_json, "batch JSON must not drift");
}

#[test]
fn paper_machine_file_keeps_serve_reports_byte_identical() {
    let script = "nodes=4\n\
                  job name=a workload=mm ranks=2 param:N=8\n\
                  job name=b workload=swim ranks=2 param:N=8 arrive=1e-4\n";
    let base_args = parse_args(&argv("--serve s.txt")).unwrap();
    let mut mem = vpce_serve::MemStorage::default();
    let base = cli::run_serve(script, &base_args, &mut mem);
    assert_eq!(base.outcome, Outcome::Success, "{}", base.text);

    let mut args = base_args.clone();
    with_machine(&mut args, "paper.machine");
    let mut mem = vpce_serve::MemStorage::default();
    let out = cli::run_serve(script, &args, &mut mem);
    assert_eq!(out.text, base.text);
    assert_eq!(out.batch_json, base.batch_json, "serve JSON must not drift");
}

#[test]
fn skwp_carries_about_four_times_the_conventional_bandwidth() {
    let paper = example_machine("paper.machine");
    let conv = example_machine("conventional.machine");
    let skwp_bps = paper.link_rate().bandwidth_bps;
    let conv_bps = conv.link_rate().bandwidth_bps;
    // The paper's calibration points: 50 MB/s SKWP against 12.5 MB/s
    // for the conventional clock on the identical cable.
    assert!((skwp_bps - 50e6).abs() < 1e3, "SKWP rate {skwp_bps}");
    assert!((conv_bps - 12.5e6).abs() < 1e3, "conventional rate {conv_bps}");
    let gain = skwp_bps / conv_bps;
    assert!((3.5..4.5).contains(&gain), "SKWP gain {gain} outside ~4x");
}

#[test]
fn dma_and_pio_cost_curves_cross_where_the_setup_model_says() {
    use cluster_sim::TransferKind;
    let paper = example_machine("paper.machine");
    let (nic, cpu) = (&paper.node.nic, &paper.node.cpu);
    let elem = 8; // one REAL*8
    let cost = |elems: usize, pio: bool| {
        let kind = if pio {
            TransferKind::Strided { elems, elem_bytes: elem }
        } else {
            TransferKind::Contiguous { bytes: elems * elem }
        };
        nic.host_overhead(kind, cpu)
    };
    // Small strided messages: element-by-element PIO beats paying the
    // 10us DMA engine setup.
    assert!(cost(4, true) < cost(4, false), "4 elems: PIO must win");
    // Large messages: the amortized DMA descriptor beats per-element
    // copies.
    assert!(cost(1024, false) < cost(1024, true), "1024 elems: DMA must win");
    // The crossover sits where setup_s / pio_per_elem_s predicts
    // (10us / 0.6us ~ 17 elements).
    let crossover = (1..1024)
        .find(|&n| cost(n, false) <= cost(n, true))
        .expect("curves must cross");
    let predicted = (nic.dma_setup_s / nic.pio_per_elem_s).ceil() as usize;
    assert!(
        crossover.abs_diff(predicted) <= 2,
        "crossover {crossover} far from predicted {predicted}"
    );
}

#[test]
fn zoo_machines_run_every_example_workload_end_to_end() {
    for file in ["torus3d.machine", "crossbar.machine", "fattree.machine"] {
        for workload in [vpce_workloads::mm::SOURCE, vpce_workloads::swim::SOURCE] {
            let mut args = parse_args(&argv("x.f --nodes 8")).unwrap();
            with_machine(&mut args, file);
            let out = cli::run(workload, &args).unwrap();
            assert_eq!(out.outcome, Outcome::Success, "{file}: {}", out.text);
            assert!(
                out.text.contains("results identical to sequential execution: true"),
                "{file}: {}",
                out.text
            );
        }
    }
}

#[test]
fn machine_dump_matches_golden_bytes() {
    let mut args = parse_args(&argv("--machine-dump")).unwrap();
    with_machine(&mut args, "paper.machine");
    let out = cli::run_machine_dump(&args);
    assert_eq!(out.outcome, Outcome::Success);

    let golden_path = repo_path("tests/golden/paper_machine.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &out.text).expect("write golden");
    } else {
        let expected = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden file {golden_path}: {e}"));
        assert_eq!(
            out.text, expected,
            "machine dump drifted from paper_machine.txt; if intentional, \
             regenerate with UPDATE_GOLDEN=1"
        );
    }
    // The dump is itself a valid description that resolves to the
    // same machine (the CI round-trip lint).
    let reparsed = vpce_machine::parse::parse(&out.text).expect("dump re-parses");
    assert_eq!(reparsed, example_machine("paper.machine"));
    // And the example file equals the built-in default it documents.
    assert_eq!(example_machine("paper.machine"), MachineSpec::default());

    // Every built-in preset and every example file, dumped in one
    // document: a refactor of how the presets are built must leave
    // each resolved value where it was.
    let mut all = String::new();
    for name in MachineSpec::BUILTINS {
        let spec = MachineSpec::builtin(name).expect("listed presets resolve");
        all.push_str(&format!("## builtin {name}\n{}\n", spec.dump()));
    }
    let mut files: Vec<String> = std::fs::read_dir(repo_path("examples/machines"))
        .expect("examples/machines exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|f| f.ends_with(".machine"))
        .collect();
    files.sort();
    for file in &files {
        all.push_str(&format!(
            "## file {file}\n{}\n",
            example_machine(file).dump()
        ));
    }
    let golden_path = repo_path("tests/golden/builtin_machines.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &all).expect("write golden");
    } else {
        let expected = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden file {golden_path}: {e}"));
        assert_eq!(
            all, expected,
            "a preset's dump drifted from builtin_machines.txt; if intentional, \
             regenerate with UPDATE_GOLDEN=1"
        );
    }
}
