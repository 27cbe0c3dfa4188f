//! The `vpcec` command-line driver: compile an F77-mini file and run
//! it on the simulated cluster. Every flag is one row of [`FLAGS`],
//! read by the settings walker (no CLI dependency); parsing is pure and
//! [`run`] maps arguments to output text, so the whole driver is
//! unit-testable.

use std::borrow::Cow;
use std::fmt::Write as _;

use lmad::Granularity;
use spmd_rt::{ExecMode, FaultSpec, Schedule, VpceError};
use vpce_machine::MachineSpec;
use vpce_recover::{RecoverSpec, RECOVER_KEYS};
use vpce_sched::settings::{self, Flag};
use vpce_sched::{BatchOptions, BatchSpec, SourceLoader, FAULT_KEYS};
use vpce_trace::Tracer;

use crate::{BackendOptions, FrontError};

/// Parsed command line: one field per row of [`FLAGS`] (which says
/// what each one sets), plus the resolved machine. Every field not
/// given is its type's default, except `nodes`, which is 4.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    pub source_path: String,
    pub nodes: usize,
    pub granularity: Option<Granularity>,
    pub schedule: Option<Schedule>,
    pub mode: ExecMode,
    pub params: Vec<(String, i64)>,
    pub show_report: bool,
    pub advise: bool,
    pub no_avpg: bool,
    pub prototype: bool,
    pub pull: bool,
    pub lint: bool,
    pub lint_json: Option<String>,
    pub verify: bool,
    pub verify_json: Option<String>,
    pub verify_strict_pools: bool,
    pub unsafe_collect: bool,
    pub trace: Option<String>,
    pub trace_summary: bool,
    pub faults: FaultSpec,
    pub batch: Option<String>,
    pub sched_seed: Option<u64>,
    pub probation: Option<u32>,
    pub batch_json: Option<String>,
    pub serve: Option<String>,
    pub journal: Option<String>,
    pub kill_after: Option<u64>,
    pub status: Option<String>,
    pub recover: Option<RecoverSpec>,
    pub machine: Option<String>,
    /// The resolved `--machine` description. The binary fills this via
    /// [`load_machine`] after parsing; tests may set it directly.
    pub machine_spec: Option<MachineSpec>,
    pub machine_dump: bool,
}

/// Every way a `vpcec` invocation can end. All process exit codes
/// funnel through [`Outcome::exit_code`] — the one documented table —
/// instead of scattered numeric literals.
///
/// | code | outcomes |
/// |------|----------|
/// | 0    | `Success` |
/// | 1    | `UsageError`, `IoError`, `LintWarnings` |
/// | 2    | `LintConflicts` |
/// | 3    | `RuntimeFault` (an unsurvivable fault, or a failed batch job) |
/// | 4    | `AdmissionFailure` (a batch job refused at admission) |
/// | 5    | `JournalCorrupt` (a `vpced` journal that cannot be trusted) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Success,
    /// Bad flags or a malformed jobfile.
    UsageError,
    /// A file could not be read or written.
    IoError,
    /// `--lint` found warnings.
    LintWarnings,
    /// `--lint` found undefined-outcome conflicts.
    LintConflicts,
    /// The run died on an unsurvivable fault (or, in batch mode, at
    /// least one admitted job failed; in serve mode, the daemon was
    /// killed at the seeded journal offset).
    RuntimeFault,
    /// Batch admission control refused at least one job.
    AdmissionFailure,
    /// The `vpced` journal is damaged mid-log (VPCE302) or replay
    /// re-derived a different history than it records (VPCE303).
    JournalCorrupt,
}

impl Outcome {
    /// The process exit code for this outcome — the single mapping
    /// the binary and every test go through.
    pub fn exit_code(self) -> i32 {
        match self {
            Outcome::Success => 0,
            Outcome::UsageError | Outcome::IoError | Outcome::LintWarnings => 1,
            Outcome::LintConflicts => 2,
            Outcome::RuntimeFault => 3,
            Outcome::AdmissionFailure => 4,
            Outcome::JournalCorrupt => 5,
        }
    }

    /// Classify a lint exit (0 clean / 1 warnings / 2 conflicts).
    pub fn from_lint(code: i32) -> Outcome {
        match code {
            0 => Outcome::Success,
            1 => Outcome::LintWarnings,
            _ => Outcome::LintConflicts,
        }
    }

    /// Classify a typed runtime error.
    pub fn from_error(e: &VpceError) -> Outcome {
        match e.exit_code() {
            4 => Outcome::AdmissionFailure,
            _ => Outcome::RuntimeFault,
        }
    }

    /// Classify a finished batch (4 beats 3 beats 0, like
    /// `BatchReport::exit_code`).
    pub fn from_batch(report_exit: i32) -> Outcome {
        match report_exit {
            0 => Outcome::Success,
            4 => Outcome::AdmissionFailure,
            _ => Outcome::RuntimeFault,
        }
    }

    /// Classify a typed `vpced` service error. Untrustworthy-journal
    /// codes get their own exit (5); command-level refusals are usage
    /// errors; a torn tail only surfaces as an error when the seeded
    /// kill fired, which is a runtime death.
    pub fn from_serve(code: vpce_serve::ServeCode) -> Outcome {
        use vpce_serve::ServeCode as S;
        match code {
            S::JournalCorrupt | S::ReplayDivergence => Outcome::JournalCorrupt,
            S::TornTail => Outcome::RuntimeFault,
            S::UnknownJob
            | S::DuplicateSubmit
            | S::QuotaExceeded
            | S::BadCommand
            | S::NotPreemptible => Outcome::UsageError,
        }
    }
}

/// The modes an invocation runs in, one bit each in a flag's `modes`:
/// a source file runs (or, with `--lint` / `--verify`, is checked),
/// `--batch`, `--serve` and `--machine-dump` are modes of their own.
const RUN: u8 = 1;
const LINT: u8 = 1 << 1;
const VERIFY: u8 = 1 << 2;
const BATCH: u8 = 1 << 3;
const SERVE: u8 = 1 << 4;
const DUMP: u8 = 1 << 5;
/// Every mode that compiles a source file.
const PROGRAM: u8 = RUN | LINT | VERIFY;

/// Mode names, by bit.
pub const MODES: [&str; 6] = ["run", "--lint", "--verify", "--batch", "--serve", "--machine-dump"];

/// Flag pairs that settle one thing twice: refused, with the reason.
const CONFLICTS: [(&str, &str, &str); 3] = [
    ("--grain", "--advise", "both settle the granularity"),
    ("--lint", "--verify", "both replace the run with a static check"),
    ("--machine", "--prototype", "both pick the cluster model"),
];

fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

/// Every `vpcec` flag, once: its operand, the modes it applies to, its
/// help text and how it is read. Parsing, the mode check and `--help`
/// all come from this table.
#[rustfmt::skip]
pub const FLAGS: &[Flag<CliArgs>] = &[
    Flag { name: "--nodes", operand: Some("N"), modes: PROGRAM | BATCH, repeatable: false,
        help: "cluster size (default 4; a jobfile's nodes= wins over it)",
        set: |a, v| settings::number(v).map(|n| a.nodes = n) },
    Flag { name: "--grain", operand: Some("fine|middle|coarse"), modes: PROGRAM, repeatable: false,
        help: "communication granularity (default: the advisor's pick)",
        set: |a, v| settings::choice(v, &Granularity::ALL, Granularity::name).map(|g| a.granularity = Some(g)) },
    Flag { name: "--schedule", operand: Some("block|cyclic"), modes: PROGRAM, repeatable: false,
        help: "override the block/cyclic heuristic",
        set: |a, v| settings::choice(v, &Schedule::ALL, Schedule::name).map(|s| a.schedule = Some(s)) },
    Flag { name: "--analytic", operand: None, modes: RUN | BATCH | SERVE, repeatable: false,
        help: "analytic timing mode (skip numeric execution)",
        set: |a, _| { a.mode = ExecMode::Analytic; Ok(()) } },
    Flag { name: "--param", operand: Some("NAME=VALUE"), modes: PROGRAM, repeatable: true,
        help: "override a PARAMETER (repeatable, each NAME once)",
        set: |a, v| {
            let (k, v) = settings::key_value(v).map_err(|_| "needs NAME=VALUE".to_string())?;
            let name = k.to_ascii_uppercase();
            if a.params.iter().any(|(n, _)| *n == name) {
                return Err(format!("repeats `{name}`: give each PARAMETER once"));
            }
            a.params.push((name, settings::number(v)?));
            Ok(())
        } },
    Flag { name: "--report", operand: None, modes: PROGRAM, repeatable: false,
        help: "print the compiler's analysis and plans", set: |a, _| on(&mut a.show_report) },
    Flag { name: "--advise", operand: None, modes: PROGRAM, repeatable: false,
        help: "print the advisor's simulated communication time per grain\n\
               (one analytic run per distinct lowered program)",
        set: |a, _| on(&mut a.advise) },
    Flag { name: "--no-avpg", operand: None, modes: PROGRAM, repeatable: false,
        help: "disable the AVPG communication elimination", set: |a, _| on(&mut a.no_avpg) },
    Flag { name: "--prototype", operand: None, modes: PROGRAM, repeatable: false,
        help: "use the calibrated ~6 MB/s prototype card", set: |a, _| on(&mut a.prototype) },
    Flag { name: "--machine", operand: Some("M"), modes: PROGRAM | BATCH | SERVE | DUMP, repeatable: false,
        help: "a built-in machine (paper, prototype, fast-ethernet,\n\
               conventional, torus, torus3d, crossbar, fattree, hypercube)\n\
               or a layered .machine file (include= pulls in a base);\n\
               jobfile machine= headers and fields win over it",
        set: |a, v| { a.machine = Some(v.to_string()); Ok(()) } },
    Flag { name: "--machine-dump", operand: None, modes: DUMP, repeatable: false,
        help: "print the resolved machine description and exit; it\n\
               re-parses to the identical machine",
        set: |a, _| on(&mut a.machine_dump) },
    Flag { name: "--pull", operand: None, modes: PROGRAM, repeatable: false,
        help: "slaves GET their data instead of master PUTs", set: |a, _| on(&mut a.pull) },
    Flag { name: "--lint", operand: None, modes: LINT, repeatable: false,
        help: "check the plan for RMA races and epoch-safety violations\n\
               instead of running; exit 0 clean / 1 warnings / 2 conflicts",
        set: |a, _| on(&mut a.lint) },
    Flag { name: "--lint-json", operand: Some("PATH"), modes: LINT, repeatable: false,
        help: "also write the lint diagnostics as JSON to PATH",
        set: |a, v| { a.lint_json = Some(v.to_string()); Ok(()) } },
    Flag { name: "--verify", operand: None, modes: VERIFY, repeatable: false,
        help: "explore every interleaving of the lowered plan for\n\
               deadlocks instead of running, with a minimal counterexample;\n\
               exit 0 verified / 1 conditional progress / 2 deadlock",
        set: |a, _| on(&mut a.verify) },
    Flag { name: "--verify-json", operand: Some("PATH"), modes: VERIFY, repeatable: false,
        help: "also write the verifier report as JSON to PATH",
        set: |a, v| { a.verify_json = Some(v.to_string()); Ok(()) } },
    Flag { name: "--verify-strict-pools", operand: None, modes: VERIFY, repeatable: false,
        help: "an eager put with no free pool slot blocks (VPCE204)\n\
               instead of falling back to rendezvous (VPCE210)",
        set: |a, _| on(&mut a.verify_strict_pools) },
    Flag { name: "--unsafe-collect", operand: None, modes: PROGRAM, repeatable: false,
        help: "skip the 5.6 overlap safety check (unsound; exercises the linter)",
        set: |a, _| on(&mut a.unsafe_collect) },
    Flag { name: "--trace", operand: Some("PATH"), modes: RUN | BATCH | SERVE, repeatable: false,
        help: "write the run (batch, serve: the cluster timeline) as Chrome\n\
               trace-event JSON to PATH (ui.perfetto.dev)",
        set: |a, v| { a.trace = Some(v.to_string()); Ok(()) } },
    Flag { name: "--trace-summary", operand: None, modes: RUN, repeatable: false,
        help: "print per-phase rollups and the critical-path breakdown",
        set: |a, _| on(&mut a.trace_summary) },
    Flag { name: "--faults", operand: Some("SPEC"), modes: RUN | VERIFY, repeatable: false,
        help: "inject a deterministic fault schedule: a preset (off, light,\n\
               heavy, crashy) then key=value pairs (below), e.g.\n\
               light,drop=0.2,seed=7; an unsurvivable one exits 3",
        set: |a, v| FaultSpec::parse(v).map(|f| a.faults = f).map_err(|e| e.to_string()) },
    Flag { name: "--recover", operand: Some("SPEC"), modes: RUN, repeatable: false,
        help: "arm in-run rollback recovery (buddy checkpoints, spare-node\n\
               failover): `on` then key=value pairs (below); a batch or\n\
               serve job takes recover= in the jobfile",
        set: |a, v| RecoverSpec::parse(v).map(|r| a.recover = Some(r)) },
    Flag { name: "--batch", operand: Some("JOBFILE"), modes: BATCH, repeatable: false,
        help: "run a jobfile (`-`: stdin) through the gang scheduler; exit 0\n\
               all done / 3 a job failed / 4 a job refused at admission",
        set: |a, v| { a.batch = Some(v.to_string()); Ok(()) } },
    Flag { name: "--sched-seed", operand: Some("N"), modes: BATCH, repeatable: false,
        help: "override the jobfile's batch seed",
        set: |a, v| settings::number(v).map(|n| a.sched_seed = Some(n)) },
    Flag { name: "--probation", operand: Some("N"), modes: BATCH, repeatable: false,
        help: "reintegrate crashed nodes after N clean completions\n\
               (a jobfile's probation= wins over it)",
        set: |a, v| settings::count(v).map(|n| a.probation = Some(n)) },
    Flag { name: "--batch-json", operand: Some("PATH"), modes: BATCH | SERVE, repeatable: false,
        help: "also write the batch report as stable JSON",
        set: |a, v| { a.batch_json = Some(v.to_string()); Ok(()) } },
    Flag { name: "--serve", operand: Some("SCRIPT"), modes: SERVE, repeatable: false,
        help: "feed a jobfile-plus-verbs script (`-`: stdin) to `vpced`,\n\
               the journaled, preemptive job service; exits like --batch,\n\
               or 5 when the journal cannot be trusted",
        set: |a, v| { a.serve = Some(v.to_string()); Ok(()) } },
    Flag { name: "--journal", operand: Some("PATH"), modes: SERVE, repeatable: false,
        help: "durable journal; restarting on it recovers the acknowledged state",
        set: |a, v| { a.journal = Some(v.to_string()); Ok(()) } },
    Flag { name: "--kill-after", operand: Some("N"), modes: SERVE, repeatable: false,
        help: "kill the daemon when the journal would pass byte N (exit 3)",
        set: |a, v| settings::number(v).map(|n| a.kill_after = Some(n)) },
    Flag { name: "--status", operand: Some("NAME"), modes: SERVE, repeatable: false,
        help: "after draining, print NAME's one-line status",
        set: |a, v| { a.status = Some(v.to_string()); Ok(()) } },
];

/// The `--help` text: every flag of [`FLAGS`] with the modes it
/// applies to, then the `--faults` and `--recover` keys.
pub fn usage() -> String {
    format!(
        "vpcec — compile Fortran-77 (F77-mini) and run it on the simulated V-Bus cluster\n\n\
         USAGE: vpcec <file.f> [options]      (run; --lint or --verify check instead)\n       \
         vpcec --batch JOBFILE | --serve SCRIPT | --machine-dump [options]\n\n\
         {}\n--faults keys:\n{}\n--recover keys:\n{}\n\
         EXIT CODES: 0 ok | 1 usage, I/O or lint warnings | 2 lint conflicts |\n            \
         3 unsurvivable fault / failed batch job / killed daemon |\n            \
         4 admission refused | 5 untrusted journal\n",
        settings::usage(FLAGS, &MODES),
        settings::help(FAULT_KEYS),
        settings::help(RECOVER_KEYS),
    )
}

/// Parse an argument vector (excluding `argv[0]`) through [`FLAGS`]: a
/// repeated flag, a declared `CONFLICTS` pair and a flag outside the
/// invocation's mode are refused, each in one line.
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut out = CliArgs { nodes: 4, ..CliArgs::default() };
    let (positional, given) = settings::walk(FLAGS, args, &mut out)?;
    let named = |name: &str| given.iter().any(|&i| FLAGS[i].name == name);
    let mut positional = positional.iter();
    if let Some(source) = positional.next() {
        out.source_path = source.clone();
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unknown argument `{extra}`"));
    }
    for (a, b, why) in CONFLICTS {
        if named(a) && named(b) {
            return Err(format!("{a} and {b} {why}; give one"));
        }
    }
    let selected = [
        (!out.source_path.is_empty(), RUN),
        (out.batch.is_some(), BATCH),
        (out.serve.is_some(), SERVE),
        (out.machine_dump, DUMP),
    ];
    let mut mode = match selected.iter().filter(|(on, _)| *on).map(|&(_, m)| m).collect::<Vec<_>>()[..] {
        [] => return Err("no source file given".into()),
        [mode] => mode,
        _ => {
            return Err(
                "give exactly one of a source file, --batch JOBFILE, --serve SCRIPT or --machine-dump"
                    .into(),
            )
        }
    };
    if mode == RUN && out.lint {
        mode = LINT;
    } else if mode == RUN && out.verify {
        mode = VERIFY;
    }
    settings::check_modes(FLAGS, &given, mode, &MODES)?;
    Ok(out)
}

/// What one driver invocation produced: the report text, the process
/// exit code (`--lint` mode: 1 = warnings, 2 = conflicts; a fault the
/// stack could not survive: 3), and the JSON lint payload when
/// `--lint-json` was requested (the binary writes it; this function
/// stays I/O-free).
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub text: String,
    pub exit: i32,
    /// What kind of ending this was; `exit` is always
    /// `outcome.exit_code()`.
    pub outcome: Outcome,
    pub lint_json: Option<String>,
    /// Stable-JSON verifier report when `--verify-json` was requested
    /// in `--verify` mode (the binary writes it).
    pub verify_json: Option<String>,
    /// Chrome trace-event JSON of the run when `--trace` was given
    /// (the binary writes it to the requested path).
    pub trace_json: Option<String>,
    /// Stable-JSON batch report in `--batch` mode (the binary writes
    /// it when `--batch-json` was requested).
    pub batch_json: Option<String>,
    /// A refusal for standard error (the binary prints it), with
    /// nothing on `text`.
    pub stderr: String,
}

impl RunOutput {
    /// An ending with no side file. The one place `exit` is derived
    /// from `outcome`; a side file is added with struct-update syntax.
    pub fn new(text: String, outcome: Outcome) -> Self {
        RunOutput {
            text,
            exit: outcome.exit_code(),
            outcome,
            lint_json: None,
            verify_json: None,
            trace_json: None,
            batch_json: None,
            stderr: String::new(),
        }
    }
}

/// Resolve a `--machine` operand: a built-in description name, else a
/// `.machine` file the loader reads (the loader also serves `include=`
/// names inside the file, so tests can inject closures and the binary
/// resolves relative to the file's directory).
pub fn load_machine(operand: &str, loader: &SourceLoader) -> Result<MachineSpec, String> {
    if let Some(spec) = MachineSpec::builtin(operand) {
        return Ok(spec);
    }
    let text = loader(operand).map_err(|e| format!("--machine {operand}: {e}"))?;
    let mut include = |name: &str| loader(name);
    vpce_machine::parse::parse_layered(&text, &mut include)
        .map_err(|e| format!("--machine {operand}: {e}"))
}

/// `--machine-dump` mode: print the fully-resolved machine description
/// (the `--machine` layering applied, or the hard-coded paper
/// baseline). The output is itself a valid `.machine` file that parses
/// back to the identical spec — the round trip CI lints against.
pub fn run_machine_dump(args: &CliArgs) -> RunOutput {
    let spec = args.machine_spec.clone().unwrap_or_default();
    RunOutput::new(spec.dump(), Outcome::Success)
}

/// Execute the request against already-loaded source text. Returns the
/// full report the binary prints.
pub fn run(source: &str, args: &CliArgs) -> Result<RunOutput, FrontError> {
    run_on(source, args, mpi2::workers::cores())
}

/// [`run`] on a host of `cores` cores, which decides where the
/// sequential reference runs (`spmd_rt::with_reference_on`) and no byte.
pub(crate) fn run_on(source: &str, args: &CliArgs, cores: usize) -> Result<RunOutput, FrontError> {
    // One lowering for every machine: the built-in presets are machine
    // descriptions too (`paper` lowers to `ClusterConfig::paper_n`), so
    // a node count they cannot host is the same VPCE505 as for
    // `--machine`.
    let machine = match &args.machine_spec {
        Some(m) => Cow::Borrowed(m),
        None => {
            let preset = if args.prototype { "prototype" } else { "paper" };
            let spec = MachineSpec::builtin(preset);
            Cow::Owned(spec.expect("the paper and prototype presets are built in"))
        }
    };
    let cluster = match machine.lower(args.nodes) {
        Ok(c) => c,
        Err(e) => {
            // A shape the description cannot host at this node count
            // (e.g. a 6-node hypercube, or no node at all) is a usage
            // error, not a compile error.
            return Ok(RunOutput::new(
                format!("error: machine `{}`: {e}\n", machine.name),
                Outcome::UsageError,
            ));
        }
    };
    let params: Vec<(&str, i64)> = args.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    let mut out = String::new();

    let analyzed = polaris_fe::compile(source, &params)?;

    // Granularity: explicit, or the simulation-backed advisor — which
    // hands back the winner's plan and analytic run with its verdict.
    let (granularity, advised) = match args.granularity {
        Some(g) => (g, None),
        None => {
            let shared = crate::Translated::new(Cow::Borrowed(&analyzed));
            let advice = match crate::advise(&shared, &cluster, &base_opts(args)) {
                Ok(advice) => advice,
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                    return Ok(RunOutput::new(out, Outcome::from_error(&e)));
                }
            };
            if args.advise {
                let _ = writeln!(out, "granularity advisor:");
                for (g, t) in &advice.measured {
                    let _ = writeln!(out, "  {:>6}: {:.3} ms comm", g.name(), t * 1e3);
                }
                let _ = writeln!(out, "  picked: {}", advice.winner.name());
            }
            (advice.winner, Some((advice.compiled, advice.report)))
        }
    };

    let opts = base_opts(args).granularity(granularity);
    if args.show_report {
        out.push_str(&crate::report::describe_frontend(&analyzed));
    }
    let (compiled, advised_run) = match advised {
        Some((compiled, run)) => (compiled, Some(run)),
        None => (polaris_be::compile_backend(&analyzed, &opts), None),
    };
    if args.show_report {
        out.push_str(&crate::report::describe_backend(&compiled));
    }

    // Lint mode: statically check the plan instead of executing it.
    if args.lint {
        let lint_opts = rmacheck::LintOptions {
            outputs_live: opts.outputs_live,
        };
        let lint = rmacheck::lint(&compiled.program, &compiled.report, &lint_opts);
        out.push_str(&lint.render_human());
        return Ok(RunOutput {
            lint_json: args.lint_json.is_some().then(|| lint.to_json()),
            ..RunOutput::new(out, Outcome::from_lint(lint.exit_code()))
        });
    }

    // Verify mode: exhaustively explore the lowered communication
    // skeleton for deadlocks instead of executing it. Shares the lint
    // exit convention (0 verified / 1 warnings / 2 errors).
    if args.verify {
        let policy = mpi2::TransportPolicy::from_config(&cluster);
        let opts = commcheck::VerifyOptions {
            strict_pools: args.verify_strict_pools,
        };
        let rep = match commcheck::try_verify(&compiled.program, &policy, &args.faults, &opts) {
            Ok(rep) => rep,
            Err(refusal) => {
                return Ok(RunOutput {
                    stderr: format!("error: {refusal}\n"),
                    ..RunOutput::new(String::new(), Outcome::UsageError)
                })
            }
        };
        out.push_str(&rep.render_human());
        return Ok(RunOutput {
            verify_json: args.verify_json.is_some().then(|| rep.to_json()),
            ..RunOutput::new(out, Outcome::from_lint(rep.exit_code()))
        });
    }

    // A live tracer only when somebody asked for its output; the
    // disabled tracer keeps the run on the exact untraced code path.
    let tracing = args.trace.is_some() || args.trace_summary;
    let tracer = if tracing {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    // The advisor's run of the winner is this run when this run is the
    // same pure function: analytic, fault-free, untraced, unrecovered.
    let advised_run = advised_run.filter(|_| {
        args.mode == ExecMode::Analytic
            && args.faults.is_off()
            && !tracing
            && args.recover.is_none()
    });
    // `--recover` swaps in the rollback-recovery driver: the same
    // execution (report and trace byte-identical to the crash-free
    // run) plus a side ledger of checkpoints/rollbacks/respawns.
    let run_parallel = || match (advised_run, &args.recover) {
        (Some(rep), _) => Ok((rep, None)),
        (None, Some(spec)) => vpce_recover::run_recovering(
            &compiled.program,
            &cluster,
            args.mode,
            tracer.clone(),
            args.faults.clone(),
            spec,
        )
        .map(|(rep, ledger)| (rep, Some(ledger))),
        (None, None) => spmd_rt::try_execute_traced(
            &compiled.program,
            &cluster,
            args.mode,
            tracer.clone(),
            args.faults.clone(),
        )
        .map(|rep| (rep, None)),
    };
    let executed = spmd_rt::with_reference_on(
        cores,
        &compiled.program,
        &cluster.node.cpu,
        args.mode,
        run_parallel,
    );
    let ((parallel, recovery), sequential) = match executed {
        Ok(all) => all,
        Err(e) => {
            // Unsurvivable fault, a program/cluster mismatch or an
            // error the program itself fails with: a one-line typed
            // diagnosis and a distinct exit code, never a panic.
            let _ = writeln!(out, "error: {e}");
            return Ok(RunOutput::new(out, Outcome::from_error(&e)));
        }
    };

    let _ = writeln!(
        out,
        "{}: {} ranks, {} granularity",
        compiled.program.name,
        args.nodes,
        granularity.name()
    );
    let _ = writeln!(
        out,
        "  sequential {:>12.6}s | parallel {:>12.6}s | speedup {:.3}x",
        sequential.elapsed,
        parallel.elapsed,
        sequential.elapsed / parallel.elapsed
    );
    let _ = writeln!(
        out,
        "  communication {:.6}s | {} wire messages | {} wire bytes",
        parallel.comm_time, parallel.net.p2p_messages, parallel.net.p2p_bytes
    );
    out.push_str(&crate::report::describe_comm(&parallel.rank_stats));
    out.push_str(&crate::report::describe_transport(
        &mpi2::TransportPolicy::from_config(&cluster),
        &parallel.rank_stats,
    ));
    if args.mode == ExecMode::Full {
        let identical = spmd_rt::same_bits(&parallel.arrays, &sequential.arrays);
        let _ = writeln!(
            out,
            "  results identical to sequential execution: {identical}"
        );
    }
    // The fault ledger prints only when a schedule is active, so a
    // fault-free invocation's report is byte-identical to the
    // pre-fault-plane output.
    if !args.faults.is_off() {
        out.push_str(&crate::report::describe_faults(&args.faults, &parallel));
    }
    // The recovery ledger prints only when --recover armed it, so an
    // unarmed invocation's report is byte-identical to the pre-recovery
    // output.
    if let (Some(spec), Some(ledger)) = (&args.recover, &recovery) {
        out.push_str(&crate::report::describe_recovery(spec, ledger));
    }
    if args.trace_summary {
        if let Some(rep) = &parallel.trace {
            out.push_str(&rep.render());
        }
    }
    Ok(RunOutput {
        // `--trace-summary` alone prints the analyses; it renders no
        // Chrome document nobody writes.
        trace_json: args.trace.is_some().then(|| tracer.to_chrome_json()),
        ..RunOutput::new(out, Outcome::Success)
    })
}

/// Batch mode: parse the jobfile text and play it through the gang
/// scheduler. `Err` is usage-level (malformed jobfile, empty batch);
/// per-job failures land in the report and drive the outcome instead.
/// The loader resolves `src=` paths (the binary resolves relative to
/// the jobfile's directory; tests inject closures).
pub fn run_batch(
    jobfile: &str,
    args: &CliArgs,
    loader: &SourceLoader,
) -> Result<RunOutput, String> {
    let spec = match args.batch.as_deref() {
        // `-` is stdin; a typed jobfile error names the real file.
        Some(path) if path != "-" => {
            BatchSpec::parse_named(jobfile, path).map_err(|e| e.to_string())?
        }
        _ => BatchSpec::parse(jobfile).map_err(|e| e.to_string())?,
    };
    let opts = BatchOptions {
        nodes: args.nodes,
        seed: args.sched_seed,
        mode: args.mode,
        probation: args.probation,
        machine: args.machine_spec.clone(),
        ..BatchOptions::default()
    };
    let report = vpce_sched::run_batch(&spec, &opts, loader)?;
    Ok(RunOutput {
        trace_json: args.trace.is_some().then(|| report.trace_json.clone()),
        batch_json: Some(report.to_json()),
        ..RunOutput::new(report.render_human(), Outcome::from_batch(report.exit_code()))
    })
}

/// Serve mode: feed the script to `vpced` over `storage` and drain
/// the machine. One call is one daemon incarnation: opening the
/// journal recovers whatever previous incarnations acknowledged, the
/// script lines beyond the durable prefix are submitted, and the
/// drained report prints exactly like batch mode. Errors land in the
/// outcome (never `Err`): a seeded kill is a runtime death (exit 3,
/// restart with the same journal to recover), an untrusted journal is
/// exit 5, a refused command is a usage error.
pub fn run_serve(
    script_text: &str,
    args: &CliArgs,
    storage: &mut dyn vpce_serve::Storage,
) -> RunOutput {
    use vpce_serve::{Daemon, KillStorage, Runner, KILLED};

    let runner = Runner::new(args.mode).with_machine(args.machine_spec.clone());
    let script = vpce_serve::script_lines(script_text);
    let mut out = String::new();
    let body = || -> Result<(String, String, String, i32), vpce_serve::ServeError> {
        let mut storage = KillStorage::new(storage, args.kill_after)?;
        let (mut daemon, recovery) = Daemon::open(&mut storage, &runner)?;
        if recovery.torn_bytes > 0 {
            let _ = writeln!(
                out,
                "warning[VPCE301] discarded {} torn tail bytes (crash mid-append)",
                recovery.torn_bytes
            );
        }
        if recovery.inputs > 0 || recovery.prior_recoveries > 0 {
            let _ = writeln!(
                out,
                "vpced: recovered {} inputs, {} derived ops from the journal (recovery #{})",
                recovery.inputs,
                recovery.derived,
                recovery.prior_recoveries + 1
            );
        }
        let durable = daemon.inputs().len();
        for line in script.iter().skip(durable) {
            daemon.submit(line)?;
        }
        daemon.drain()?;
        if let Some(name) = &args.status {
            let _ = writeln!(out, "{}", daemon.status(name)?);
        }
        Ok((
            daemon.report().render_human(),
            daemon.report_json().to_string(),
            daemon.report().trace_json.clone(),
            daemon.report().exit_code(),
        ))
    };
    match body() {
        Ok((human, json, trace, report_exit)) => {
            out.push_str(&human);
            RunOutput {
                trace_json: args.trace.is_some().then_some(trace),
                batch_json: Some(json),
                ..RunOutput::new(out, Outcome::from_batch(report_exit))
            }
        }
        Err(e) => {
            let outcome = if e.detail == KILLED {
                let _ = writeln!(
                    out,
                    "vpced: {KILLED} (restart with the same --journal to recover)"
                );
                Outcome::RuntimeFault
            } else {
                let _ = writeln!(out, "{e}");
                Outcome::from_serve(e.code)
            };
            RunOutput::new(out, outcome)
        }
    }
}

fn base_opts(args: &CliArgs) -> BackendOptions {
    let mut o = BackendOptions::new(args.nodes)
        .avpg(!args.no_avpg)
        .pull(args.pull)
        .unsafe_collect(args.unsafe_collect);
    if let Some(s) = args.schedule {
        o = o.schedule(s);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const SRC: &str = "PROGRAM T\nPARAMETER (N = 32)\nREAL A(N)\nINTEGER I\nDO I = 1, N\nA(I) = REAL(I)\nENDDO\nEND\n";

    #[test]
    fn parses_all_flags() {
        let a = parse_args(&argv(
            "prog.f --nodes 8 --grain coarse --schedule cyclic --analytic \
             --param N=128 --report --no-avpg --prototype --pull \
             --unsafe-collect --trace t.json --trace-summary",
        ))
        .unwrap();
        assert_eq!(a.source_path, "prog.f");
        assert_eq!(a.nodes, 8);
        assert_eq!(a.granularity, Some(Granularity::Coarse));
        assert_eq!(a.schedule, Some(Schedule::Cyclic));
        assert_eq!(a.mode, ExecMode::Analytic);
        assert_eq!(a.params, vec![("N".to_string(), 128)]);
        assert!(a.show_report && a.no_avpg && a.prototype && a.pull);
        assert!(a.unsafe_collect && !a.lint);
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert!(a.trace_summary);
        // `--lint` takes the flags that reach the plan it checks, and
        // its JSON side file.
        let a = parse_args(&argv("prog.f --lint --lint-json out.json --unsafe-collect")).unwrap();
        assert!(a.lint && a.unsafe_collect);
        assert_eq!(a.lint_json.as_deref(), Some("out.json"));
        // `--advise` prints the advisor's comparison, so it goes without
        // `--grain` (which skips the advisor).
        let a = parse_args(&argv("prog.f --advise --verify")).unwrap();
        assert!(a.advise && a.verify && a.granularity.is_none());
    }

    /// Every flag of the table with hostile operands parses or is
    /// refused, never panics, and given twice is always refused.
    #[test]
    fn hostile_flag_values_are_refused_or_parsed() {
        for flag in FLAGS {
            for v in ["nan", "inf", "-1", "1e400", "", "18446744073709551616", "0", "N=nan", "N=1"] {
                let mut line = vec!["prog.f".to_string(), flag.name.to_string()];
                if flag.operand.is_some() {
                    line.push(v.to_string());
                }
                let _ = parse_args(&line);
                let twice = [&line[..], &line[1..]].concat();
                assert!(parse_args(&twice).is_err(), "{twice:?}");
            }
        }
    }

    /// Where the sequential reference runs reaches no byte: at one core
    /// it runs after the parallel run, at two beside it.
    #[test]
    fn reference_placement_reaches_no_byte() {
        for extra in [
            "",
            "--faults light",
            "--recover interval=1",
            "--trace-summary",
            "--trace t.json",
        ] {
            let line = format!("mm.f --nodes 4 --param N=144 --grain coarse {extra}");
            let args = parse_args(&argv(&line)).unwrap();
            let [after, beside] =
                [1, 2].map(|cores| run_on(vpce_workloads::mm::SOURCE, &args, cores).unwrap());
            assert_eq!(after.text, beside.text, "{line}");
            assert_eq!(after.exit, beside.exit, "{line}");
            let traces_equal = after.trace_json == beside.trace_json;
            assert!(traces_equal, "{line}: traces differ");
            let identical = "results identical to sequential execution: true";
            assert!(after.text.contains(identical), "{line}: {}", after.text);
        }
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&argv("prog.f --grain huge")).is_err());
        assert!(parse_args(&argv("prog.f --bogus")).is_err());
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("prog.f --param N")).is_err());
        assert!(parse_args(&argv("prog.f --lint-json")).is_err());
        // Two flags of which one would be silently ignored.
        let grain = "--grain and --advise both settle the granularity; give one";
        let check = "--lint and --verify both replace the run with a static check; give one";
        for (pair, line) in [("--grain fine --advise", grain), ("--lint --verify", check)] {
            let refused = parse_args(&argv(&format!("prog.f {pair}"))).unwrap_err();
            assert_eq!(refused, line);
        }
    }

    #[test]
    fn lint_flags_default_off() {
        let a = parse_args(&argv("prog.f")).unwrap();
        assert!(!a.lint && !a.unsafe_collect);
        assert!(a.lint_json.is_none());
    }

    #[test]
    fn parses_verify_flags() {
        let a = parse_args(&argv(
            "prog.f --verify --verify-json v.json --verify-strict-pools",
        ))
        .unwrap();
        assert!(a.verify && a.verify_strict_pools);
        assert_eq!(a.verify_json.as_deref(), Some("v.json"));
        let off = parse_args(&argv("prog.f")).unwrap();
        assert!(!off.verify && !off.verify_strict_pools);
        assert!(off.verify_json.is_none());
        assert!(parse_args(&argv("prog.f --verify-json")).is_err());
    }

    #[test]
    fn verify_mode_on_clean_source_exits_zero() {
        let args = parse_args(&argv("x.f --verify --grain fine --verify-json v.json")).unwrap();
        let out = run(SRC, &args).unwrap();
        assert_eq!(out.exit, 0, "{}", out.text);
        assert!(
            out.text.contains("clean (no stalling interleaving)"),
            "{}",
            out.text
        );
        let json = out.verify_json.expect("--verify-json requested");
        assert!(json.contains("\"exit\": 0"), "{json}");
        assert!(json.contains("\"explored\""), "{json}");
        // Verify mode does not execute the program.
        assert!(!out.text.contains("speedup"));
    }

    #[test]
    fn verify_mode_predicts_the_scheduled_crash_stall() {
        // A certain crash schedule kills every rank in region 0 — and
        // with everyone dead, nobody hangs: the skeleton is vacuously
        // deadlock-free. A *partial* schedule (only some ranks draw
        // the crash under this seed) orphans the survivors at the
        // entry barrier: VPCE205, exit 2.
        let all = parse_args(&argv("x.f --verify --grain fine --faults crash=1.0")).unwrap();
        let out = run(SRC, &all).unwrap();
        assert_eq!(out.exit, 0, "{}", out.text);

        let some =
            parse_args(&argv("x.f --verify --grain fine --faults crash=0.5,seed=1")).unwrap();
        let out = run(SRC, &some).unwrap();
        assert_eq!(out.exit, 2, "{}", out.text);
        assert!(out.text.contains("VPCE201"), "{}", out.text);
        assert!(out.text.contains("VPCE205"), "{}", out.text);
    }

    #[test]
    fn runs_and_reports_identical_results() {
        let args = parse_args(&argv("x.f --nodes 4")).unwrap();
        let out = run(SRC, &args).unwrap();
        assert!(out.text.contains("speedup"), "{}", out.text);
        assert!(out
            .text
            .contains("results identical to sequential execution: true"));
        assert_eq!(out.exit, 0);
        assert!(out.lint_json.is_none());
    }

    #[test]
    fn advisor_path_prints_comparison() {
        let mut args = parse_args(&argv("x.f --advise")).unwrap();
        args.params.push(("N".into(), 64));
        let out = run(SRC, &args).unwrap();
        assert!(out.text.contains("granularity advisor:"), "{}", out.text);
        assert!(out.text.contains("picked:"), "{}", out.text);
    }

    /// The advisor hands its winner's plan and analytic run to the
    /// final report instead of planning and simulating them again: the
    /// output must be the `--grain <picked>` run's, advisor block
    /// aside — with and without the conditions under which the
    /// advisor's run is reused.
    #[test]
    fn advised_run_equals_the_picked_grain_run() {
        let saxpy = include_str!("../../../examples/fortran/saxpy.f");
        for (source, size) in [(vpce_workloads::mm::SOURCE, "N=48"), (saxpy, "N=96")] {
            for extra in ["--analytic", "--analytic --trace-summary", ""] {
                let flags = format!("x.f --nodes 4 --param {size} --report {extra}");
                let advised = run(source, &parse_args(&argv(&format!("{flags} --advise"))).unwrap())
                    .unwrap();
                let (block, tail) = advised
                    .text
                    .split_once("  picked: ")
                    .unwrap_or_else(|| panic!("no advisor block: {}", advised.text));
                assert!(block.starts_with("granularity advisor:\n"), "{}", advised.text);
                let (grain, rest) = tail.split_once('\n').expect("the picked line ends");
                let picked =
                    run(source, &parse_args(&argv(&format!("{flags} --grain {grain}"))).unwrap())
                        .unwrap();
                assert_eq!(rest, picked.text, "{flags}");
                assert_eq!(advised.exit, picked.exit);
            }
        }
    }

    #[test]
    fn report_path_prints_compiler_listing() {
        let args = parse_args(&argv("x.f --report --grain fine")).unwrap();
        let out = run(SRC, &args).unwrap();
        assert!(out.text.contains("PARALLEL DO"), "{}", out.text);
        assert!(out.text.contains("AVPG"), "{}", out.text);
    }

    #[test]
    fn lint_mode_on_clean_source_exits_zero() {
        let args = parse_args(&argv("x.f --lint --grain fine --lint-json o.json")).unwrap();
        let out = run(SRC, &args).unwrap();
        assert_eq!(out.exit, 0, "{}", out.text);
        assert!(out.text.contains("clean"), "{}", out.text);
        let json = out.lint_json.expect("--lint-json requested");
        assert!(json.contains("\"exit\": 0"), "{json}");
        // Lint mode does not execute the program.
        assert!(!out.text.contains("speedup"));
    }

    #[test]
    fn lint_mode_flags_unsafe_collect_races() {
        // Cyclic schedule + coarse grain interleaves every rank's
        // writes, so the bounding collect regions all overlap; with
        // the 5.6 safety check disabled the plan races and the lint
        // must refuse it with the stable PUT/PUT code.
        let args = parse_args(&argv(
            "x.f --lint --grain coarse --schedule cyclic --unsafe-collect",
        ))
        .unwrap();
        let out = run(SRC, &args).unwrap();
        assert_eq!(out.exit, 2, "{}", out.text);
        assert!(out.text.contains("VPCE001"), "{}", out.text);
        // The same plan with the safety check active is conflict-free
        // (collection falls back to fine grain).
        let safe = parse_args(&argv("x.f --lint --grain coarse --schedule cyclic")).unwrap();
        let out = run(SRC, &safe).unwrap();
        assert_eq!(out.exit, 0, "{}", out.text);
    }

    #[test]
    fn untraced_run_has_no_trace_json() {
        let args = parse_args(&argv("x.f --grain fine")).unwrap();
        let out = run(SRC, &args).unwrap();
        assert!(out.trace_json.is_none());
        // The DMA/PIO ledger always prints.
        assert!(out.text.contains("data paths:"), "{}", out.text);
        assert!(out.text.contains("comm ledger:"), "{}", out.text);
    }

    #[test]
    fn trace_summary_prints_phase_table_and_critical_path() {
        let args = parse_args(&argv("x.f --grain fine --trace-summary")).unwrap();
        let out = run(SRC, &args).unwrap();
        assert!(out.text.contains("trace summary"), "{}", out.text);
        assert!(out.text.contains("critical path:"), "{}", out.text);
        // --trace-summary alone renders no Chrome JSON.
        assert!(out.trace_json.is_none());
    }

    #[test]
    fn tracing_does_not_change_the_report_numbers() {
        let plain = run(SRC, &parse_args(&argv("x.f --grain fine")).unwrap()).unwrap();
        let traced =
            run(SRC, &parse_args(&argv("x.f --grain fine --trace t.json")).unwrap()).unwrap();
        // Identical up to the extra trailing sections.
        assert!(
            traced.text.starts_with(&plain.text),
            "plain:\n{}\ntraced:\n{}",
            plain.text,
            traced.text
        );
        assert!(traced.trace_json.is_some());
    }

    #[test]
    fn parses_fault_flags() {
        let a = parse_args(&argv("prog.f --faults light,drop=0.2,seed=9")).unwrap();
        assert!(!a.faults.is_off());
        assert_eq!(a.faults.link_drop, 0.2);
        assert_eq!(a.faults.seed, 9, "the spec's seed= sets the seed");
        assert!(parse_args(&argv("prog.f --faults drop=2.0")).is_err());
        assert!(parse_args(&argv("prog.f --faults")).is_err());
        // `--faults …,seed=N` is the one way to seed a schedule.
        let seeds: Vec<&str> = FLAGS.iter().map(|f| f.name).filter(|n| n.ends_with("seed")).collect();
        assert_eq!(seeds, ["--sched-seed"]);
    }

    #[test]
    fn faulty_run_self_heals_and_reports_the_ledger() {
        let args = parse_args(&argv("x.f --grain fine --faults heavy,seed=3")).unwrap();
        let out = run(SRC, &args).unwrap();
        assert_eq!(out.exit, 0, "{}", out.text);
        assert!(
            out.text
                .contains("results identical to sequential execution: true"),
            "{}",
            out.text
        );
        assert!(out.text.contains("fault schedule: seed 3"), "{}", out.text);
        assert!(out.text.contains("self-healing:"), "{}", out.text);
    }

    #[test]
    fn off_schedule_output_is_byte_identical_to_no_flag() {
        let plain = run(SRC, &parse_args(&argv("x.f --grain fine")).unwrap()).unwrap();
        let off =
            run(SRC, &parse_args(&argv("x.f --grain fine --faults off")).unwrap()).unwrap();
        assert_eq!(plain.text, off.text);
        assert_eq!(plain.exit, off.exit);
        assert!(!plain.text.contains("fault schedule"));
    }

    #[test]
    fn unsurvivable_fault_exits_3_with_one_line_diagnosis() {
        let args =
            parse_args(&argv("x.f --grain fine --faults drop=1.0,retries=2")).unwrap();
        let out = run(SRC, &args).unwrap();
        assert_eq!(out.exit, 3, "{}", out.text);
        assert!(out.text.contains("error: link failure"), "{}", out.text);
        assert!(!out.text.contains("speedup"), "{}", out.text);
    }

    #[test]
    fn parses_recover_flags() {
        let a = parse_args(&argv("prog.f --recover on")).unwrap();
        assert_eq!(a.recover, Some(RecoverSpec::default()));
        let a = parse_args(&argv("prog.f --recover interval=2,spares=1")).unwrap();
        let spec = a.recover.unwrap();
        assert_eq!(spec.interval, 2);
        assert_eq!(spec.spares, 1);
        assert!(parse_args(&argv("prog.f")).unwrap().recover.is_none());
        assert!(parse_args(&argv("prog.f --recover")).is_err());
        assert!(parse_args(&argv("prog.f --recover nope=1")).is_err());
        // Recovery is a single-run feature; batch/serve spell it
        // `recover=` in the jobfile.
        assert!(parse_args(&argv("--batch j.txt --recover on")).is_err());
        assert!(parse_args(&argv("--serve s.txt --recover on")).is_err());
    }

    #[test]
    fn recovered_crash_exits_zero_and_appends_the_ledger() {
        let clean = run(SRC, &parse_args(&argv("x.f --grain fine")).unwrap()).unwrap();
        // A crash schedule that kills the plain run but is absorbable.
        let mut hit = None;
        for seed in 0..64u64 {
            let plain = parse_args(&argv(&format!(
                "x.f --grain fine --faults crash=0.5,seed={seed}"
            )))
            .unwrap();
            if run(SRC, &plain).unwrap().exit != 3 {
                continue;
            }
            let armed = parse_args(&argv(&format!(
                "x.f --grain fine --faults crash=0.5,seed={seed} --recover on"
            )))
            .unwrap();
            let out = run(SRC, &armed).unwrap();
            if out.exit == 0 {
                hit = Some(out);
                break;
            }
        }
        let out = hit.expect("no absorbable crashing seed in the scan");
        // The crash-free report is a byte prefix: recovery only appends.
        assert!(
            out.text.starts_with(&clean.text),
            "clean:\n{}\nrecovered:\n{}",
            clean.text,
            out.text
        );
        assert!(out.text.contains("absorbed [VPCE401]:"), "{}", out.text);
        assert!(out.text.contains("recovery time:"), "{}", out.text);
    }

    #[test]
    fn recover_without_crashes_reports_checkpoint_overhead_only() {
        let clean = run(SRC, &parse_args(&argv("x.f --grain fine")).unwrap()).unwrap();
        let armed =
            run(SRC, &parse_args(&argv("x.f --grain fine --recover on")).unwrap()).unwrap();
        assert_eq!(armed.exit, 0, "{}", armed.text);
        assert!(armed.text.starts_with(&clean.text));
        assert!(armed.text.contains("absorbed: no crashes"), "{}", armed.text);
        assert!(!armed.text.contains("VPCE401"), "{}", armed.text);
    }

    #[test]
    fn unabsorbable_crash_schedule_exits_3_with_a_vpce40x_code() {
        // rollbacks=0: the first predicted crash group busts the
        // budget before execution — a one-line VPCE402, never a panic.
        let seed = (0..64u64)
            .find(|s| {
                let plain = parse_args(&argv(&format!(
                    "x.f --grain fine --faults crash=0.5,seed={s}"
                )))
                .unwrap();
                run(SRC, &plain).unwrap().exit == 3
            })
            .expect("no crashing seed in the scan");
        let args = parse_args(&argv(&format!(
            "x.f --grain fine --faults crash=0.5,seed={seed} --recover rollbacks=0"
        )))
        .unwrap();
        let out = run(SRC, &args).unwrap();
        assert_eq!(out.exit, 3, "{}", out.text);
        assert!(out.text.contains("VPCE402"), "{}", out.text);
        assert!(!out.text.contains("speedup"), "{}", out.text);
    }

    #[test]
    fn exit_code_table_is_the_single_mapping() {
        // The documented table: every outcome, its one code.
        for (outcome, code) in [
            (Outcome::Success, 0),
            (Outcome::UsageError, 1),
            (Outcome::IoError, 1),
            (Outcome::LintWarnings, 1),
            (Outcome::LintConflicts, 2),
            (Outcome::RuntimeFault, 3),
            (Outcome::AdmissionFailure, 4),
            (Outcome::JournalCorrupt, 5),
        ] {
            assert_eq!(outcome.exit_code(), code, "{outcome:?}");
        }
        assert_eq!(Outcome::from_lint(0), Outcome::Success);
        assert_eq!(Outcome::from_lint(1), Outcome::LintWarnings);
        assert_eq!(Outcome::from_lint(2), Outcome::LintConflicts);
        let crash = VpceError::RankCrash { rank: 0, region: "r".into() };
        assert_eq!(Outcome::from_error(&crash), Outcome::RuntimeFault);
        let rej = VpceError::AdmissionRejected { job: "j".into(), reason: "r".into() };
        assert_eq!(Outcome::from_error(&rej), Outcome::AdmissionFailure);
        assert_eq!(Outcome::from_batch(0), Outcome::Success);
        assert_eq!(Outcome::from_batch(3), Outcome::RuntimeFault);
        assert_eq!(Outcome::from_batch(4), Outcome::AdmissionFailure);
        // Serve-mode classification: every VPCE30x code, its outcome
        // and (transitively) its exit — the round trip the daemon's
        // typed errors take through the CLI.
        use vpce_serve::ServeCode as S;
        for (code, outcome, exit) in [
            (S::TornTail, Outcome::RuntimeFault, 3),
            (S::JournalCorrupt, Outcome::JournalCorrupt, 5),
            (S::ReplayDivergence, Outcome::JournalCorrupt, 5),
            (S::UnknownJob, Outcome::UsageError, 1),
            (S::DuplicateSubmit, Outcome::UsageError, 1),
            (S::QuotaExceeded, Outcome::UsageError, 1),
            (S::BadCommand, Outcome::UsageError, 1),
            (S::NotPreemptible, Outcome::UsageError, 1),
        ] {
            assert_eq!(Outcome::from_serve(code), outcome, "{code:?}");
            assert_eq!(Outcome::from_serve(code).exit_code(), exit, "{code:?}");
        }
    }

    #[test]
    fn parses_batch_flags() {
        let a = parse_args(&argv("--batch jobs.txt --sched-seed 5 --batch-json b.json")).unwrap();
        assert_eq!(a.batch.as_deref(), Some("jobs.txt"));
        assert_eq!(a.sched_seed, Some(5));
        assert_eq!(a.batch_json.as_deref(), Some("b.json"));
        assert!(a.source_path.is_empty());
        // A source file and --batch are mutually exclusive; plain
        // parses still demand a source file.
        assert!(parse_args(&argv("x.f --batch jobs.txt")).is_err());
        assert!(parse_args(&argv("--sched-seed 5")).is_err());
        assert!(parse_args(&argv("--batch")).is_err());
        // Probation is a batch-scheduler knob: it needs --batch, a
        // positive interval count, and a number at all.
        let p = parse_args(&argv("--batch jobs.txt --probation 2")).unwrap();
        assert_eq!(p.probation, Some(2));
        assert!(parse_args(&argv("x.f --probation 2")).is_err());
        assert!(parse_args(&argv("--batch jobs.txt --probation 0")).is_err());
        assert!(parse_args(&argv("--batch jobs.txt --probation soon")).is_err());
    }

    #[test]
    fn batch_mode_runs_a_jobfile_end_to_end() {
        let jobfile = "nodes=4\nseed=1\n\
                       job name=a workload=mm ranks=2 param:N=8\n\
                       job name=b workload=mm ranks=2 param:N=8\n";
        let args = parse_args(&argv("--batch j.txt")).unwrap();
        let loader = |p: &str| Err::<String, _>(format!("unexpected load of `{p}`"));
        let out = run_batch(jobfile, &args, &loader).unwrap();
        assert_eq!(out.outcome, Outcome::Success, "{}", out.text);
        assert!(out.text.contains("2 submitted | 2 done"), "{}", out.text);
        let json = out.batch_json.expect("batch always renders JSON");
        assert!(json.contains("\"policy\": \"backfill\""), "{json}");
        assert!(out.trace_json.is_none(), "no --trace, no timeline file");
        // Byte-determinism straight through the CLI layer.
        let again = run_batch(jobfile, &args, &loader).unwrap();
        assert_eq!(out.text, again.text);
        assert_eq!(json, again.batch_json.unwrap());
        // A malformed jobfile is a usage error, not a report.
        assert!(run_batch("job huh", &args, &loader).is_err());
    }

    #[test]
    fn sched_seed_flag_overrides_the_jobfile() {
        let jobfile = "nodes=4\nseed=7\n\
                       storm count=2 prefix=s workload=mm ranks=2 param:N=8 mean-gap=1e-4\n";
        let args = parse_args(&argv("--batch j.txt")).unwrap();
        let loader = |p: &str| Err::<String, _>(format!("unexpected load of `{p}`"));
        let base = run_batch(jobfile, &args, &loader).unwrap();
        let seeded = parse_args(&argv("--batch j.txt --sched-seed 7")).unwrap();
        let same = run_batch(jobfile, &seeded, &loader).unwrap();
        assert_eq!(base.batch_json, same.batch_json, "--sched-seed 7 == seed=7");
        let other = parse_args(&argv("--batch j.txt --sched-seed 8")).unwrap();
        let diff = run_batch(jobfile, &other, &loader).unwrap();
        assert_ne!(base.batch_json, diff.batch_json, "storm arrivals re-draw");
    }

    #[test]
    fn parses_serve_flags() {
        let a = parse_args(&argv(
            "--serve s.txt --journal j.log --kill-after 64 --status hi",
        ))
        .unwrap();
        assert_eq!(a.serve.as_deref(), Some("s.txt"));
        assert_eq!(a.journal.as_deref(), Some("j.log"));
        assert_eq!(a.kill_after, Some(64));
        assert_eq!(a.status.as_deref(), Some("hi"));
        // `-` means stdin for both file-fed modes, never a source path.
        assert!(parse_args(&argv("--serve -")).is_ok());
        assert!(parse_args(&argv("--batch -")).is_ok());
        assert!(parse_args(&argv("-")).is_err());
        // Mode exclusivity and flag prerequisites.
        assert!(parse_args(&argv("x.f --serve s.txt")).is_err());
        assert!(parse_args(&argv("--batch j.txt --serve s.txt")).is_err());
        assert!(parse_args(&argv("--journal j.log --batch j.txt")).is_err());
        assert!(parse_args(&argv("--status hi x.f")).is_err());
        assert!(parse_args(&argv("--serve s.txt --kill-after x")).is_err());
        assert!(parse_args(&argv("--serve")).is_err());
    }

    const SERVE_SCRIPT: &str = "nodes=4\nseed=1\n\
                                tenant name=acme share=2\n\
                                job name=a tenant=acme workload=mm ranks=2 param:N=8\n\
                                job name=b workload=mm ranks=2 param:N=8 arrive=1e-4\n";

    #[test]
    fn serve_mode_drains_a_script_and_reports_like_batch() {
        let args = parse_args(&argv("--serve s.txt --status a")).unwrap();
        let mut storage = vpce_serve::MemStorage::default();
        let out = run_serve(SERVE_SCRIPT, &args, &mut storage);
        assert_eq!(out.outcome, Outcome::Success, "{}", out.text);
        assert!(out.text.contains("2 submitted | 2 done"), "{}", out.text);
        assert!(
            out.text.contains("a done tenant=acme attempts=1 preemptions=0"),
            "{}",
            out.text
        );
        let json = out.batch_json.as_deref().expect("serve always renders JSON");
        assert!(json.contains("\"tenant\": \"acme\""), "{json}");
        // Byte-determinism through the CLI layer, journal included.
        let mut storage2 = vpce_serve::MemStorage::default();
        let again = run_serve(SERVE_SCRIPT, &args, &mut storage2);
        assert_eq!(out.text, again.text);
        assert_eq!(storage.bytes, storage2.bytes);
    }

    #[test]
    fn serve_kill_after_then_restart_recovers_byte_identically() {
        let clean_args = parse_args(&argv("--serve s.txt")).unwrap();
        let mut clean = vpce_serve::MemStorage::default();
        let base = run_serve(SERVE_SCRIPT, &clean_args, &mut clean);
        assert_eq!(base.outcome, Outcome::Success, "{}", base.text);

        let killed_args = parse_args(&argv("--serve s.txt --kill-after 120")).unwrap();
        let mut storage = vpce_serve::MemStorage::default();
        let dead = run_serve(SERVE_SCRIPT, &killed_args, &mut storage);
        assert_eq!(dead.outcome, Outcome::RuntimeFault, "{}", dead.text);
        assert_eq!(dead.exit, 3);
        assert!(dead.text.contains("killed"), "{}", dead.text);
        assert!(dead.batch_json.is_none(), "no report from a dead daemon");
        assert!(storage.bytes.len() as u64 <= 120, "only the prefix survives");

        // Same journal, no kill: recovery replays to the same bytes.
        let recovered = run_serve(SERVE_SCRIPT, &clean_args, &mut storage);
        assert_eq!(recovered.outcome, Outcome::Success, "{}", recovered.text);
        assert!(recovered.text.contains("recovery #1"), "{}", recovered.text);
        assert_eq!(recovered.batch_json, base.batch_json);
        assert!(
            recovered.text.ends_with(&base.text),
            "report identical below the recovery banner:\n{}",
            recovered.text
        );
    }

    #[test]
    fn serve_refuses_bad_commands_with_typed_codes() {
        let args = parse_args(&argv("--serve s.txt")).unwrap();
        let mut s = vpce_serve::MemStorage::default();
        let out = run_serve("nodes=4\nfrobnicate the cluster\n", &args, &mut s);
        assert_eq!(out.outcome, Outcome::UsageError, "{}", out.text);
        assert!(out.text.contains("VPCE307"), "{}", out.text);
        let mut s = vpce_serve::MemStorage::default();
        let dup = run_serve(
            "nodes=4\njob name=a workload=mm ranks=2 param:N=8\n\
             job name=a workload=mm ranks=2 param:N=8\n",
            &args,
            &mut s,
        );
        assert_eq!(dup.outcome, Outcome::UsageError, "{}", dup.text);
        assert!(dup.text.contains("VPCE305"), "{}", dup.text);
    }

    #[test]
    fn front_errors_surface() {
        let args = parse_args(&argv("x.f --grain fine")).unwrap();
        let err = run("PROGRAM T\nX = \nEND\n", &args).unwrap_err();
        assert!(err.to_string().contains("line"));
    }

    #[test]
    fn machine_flags_parse_and_exclude_their_conflicts() {
        let a = parse_args(&argv("prog.f --machine torus3d")).unwrap();
        assert_eq!(a.machine.as_deref(), Some("torus3d"));
        assert!(!a.machine_dump);
        let d = parse_args(&argv("--machine-dump")).unwrap();
        assert!(d.machine_dump, "standalone mode needs no source file");
        let d = parse_args(&argv("--machine custom.machine --machine-dump")).unwrap();
        assert_eq!(d.machine.as_deref(), Some("custom.machine"));
        assert!(parse_args(&argv("prog.f --machine")).is_err());
        assert!(parse_args(&argv("prog.f --machine paper --prototype")).is_err());
        assert!(parse_args(&argv("prog.f --machine-dump")).is_err(), "dump is its own mode");
    }

    #[test]
    fn load_machine_resolves_builtins_files_and_includes() {
        let loader = |p: &str| -> Result<String, String> {
            match p {
                "slow.machine" => {
                    Ok("include = base.machine\n[nic]\npost_s = 9e-6\n".into())
                }
                "base.machine" => Ok("[cpu]\nclock_hz = 200e6\n".into()),
                other => Err(format!("no file `{other}`")),
            }
        };
        let builtin = load_machine("fast-ethernet", &loader).unwrap();
        assert_eq!(builtin.name, "fast-ethernet");
        let layered = load_machine("slow.machine", &loader).unwrap();
        assert_eq!(
            layered.node.cpu.clock_hz, 200e6,
            "include pulled the base in"
        );
        assert_eq!(layered.node.nic.post_s, 9e-6, "top layer overrides");
        let e = load_machine("ghost.machine", &loader).unwrap_err();
        assert!(e.contains("ghost.machine"), "{e}");
    }

    #[test]
    fn paper_machine_report_is_byte_identical_to_the_default() {
        let bare = parse_args(&argv("x.f --nodes 4")).unwrap();
        let base = run(SRC, &bare).unwrap();
        let mut with = parse_args(&argv("x.f --nodes 4 --machine paper")).unwrap();
        with.machine_spec = Some(MachineSpec::default());
        let out = run(SRC, &with).unwrap();
        assert_eq!(out.text, base.text, "the built-in default must lower byte-identically");
        assert_eq!(out.exit, 0);
        // The prototype preset reproduces --prototype byte for byte.
        let proto = parse_args(&argv("x.f --nodes 4 --prototype")).unwrap();
        let proto_out = run(SRC, &proto).unwrap();
        let mut via = parse_args(&argv("x.f --nodes 4 --machine prototype")).unwrap();
        via.machine_spec = Some(MachineSpec::builtin("prototype").unwrap());
        assert_eq!(run(SRC, &via).unwrap().text, proto_out.text);
    }

    #[test]
    fn infeasible_machine_is_a_usage_error_not_a_panic() {
        let mut args = parse_args(&argv("x.f --nodes 6 --machine hypercube")).unwrap();
        args.machine_spec = Some(MachineSpec::builtin("hypercube").unwrap());
        let out = run(SRC, &args).unwrap();
        assert_eq!(out.outcome, Outcome::UsageError, "{}", out.text);
        assert!(out.text.contains("hypercube"), "{}", out.text);
    }

    #[test]
    fn machine_dump_round_trips_through_the_parser() {
        let mut args = parse_args(&argv("--machine-dump")).unwrap();
        let base = run_machine_dump(&args);
        assert_eq!(base.outcome, Outcome::Success);
        assert!(base.text.starts_with("# resolved machine description"), "{}", base.text);
        let reparsed = vpce_machine::parse::parse(&base.text).unwrap();
        assert_eq!(reparsed, MachineSpec::default(), "dump must re-parse to itself");
        args.machine_spec = Some(MachineSpec::builtin("torus3d").unwrap());
        let zoo = run_machine_dump(&args);
        let reparsed = vpce_machine::parse::parse(&zoo.text).unwrap();
        assert_eq!(reparsed, MachineSpec::builtin("torus3d").unwrap());
    }

    #[test]
    fn batch_mode_honours_machine_headers_and_defaults() {
        let jobs = "nodes=4\njob name=a workload=mm ranks=2 param:N=8\n";
        let bare = parse_args(&argv("--batch j.jobs")).unwrap();
        let loader = |p: &str| Err::<String, _>(format!("unexpected load of `{p}`"));
        let base = run_batch(jobs, &bare, &loader).unwrap();
        assert_eq!(base.outcome, Outcome::Success, "{}", base.text);
        // machine=paper header: byte-identical report and JSON.
        let hdr = format!("machine=paper\n{jobs}");
        let out = run_batch(&hdr, &bare, &loader).unwrap();
        assert_eq!(out.text, base.text);
        assert_eq!(out.batch_json, base.batch_json);
        // A zoo machine as the --machine default still finishes clean.
        let mut via = parse_args(&argv("--batch j.jobs")).unwrap();
        via.machine_spec = Some(MachineSpec::builtin("crossbar").unwrap());
        let zoo = run_batch(jobs, &via, &loader).unwrap();
        assert_eq!(zoo.outcome, Outcome::Success, "{}", zoo.text);
        // Per-job machine= beats the batch default; an infeasible one
        // is a typed admission record, not an error.
        let mix = "nodes=8\njob name=a workload=mm ranks=6 machine=hypercube param:N=8\n";
        let out = run_batch(mix, &bare, &loader).unwrap();
        assert_eq!(out.outcome, Outcome::AdmissionFailure, "{}", out.text);
    }

    #[test]
    fn serve_mode_accepts_machine_headers() {
        let args = parse_args(&argv("--serve s.txt")).unwrap();
        let mut s = vpce_serve::MemStorage::default();
        let out = run_serve(
            "machine=torus\nnodes=4\njob name=a workload=mm ranks=2 param:N=8\n",
            &args,
            &mut s,
        );
        assert_eq!(out.outcome, Outcome::Success, "{}", out.text);
        let mut s = vpce_serve::MemStorage::default();
        let late = run_serve(
            "nodes=4\njob name=a workload=mm ranks=2 param:N=8\nmachine=torus\n",
            &args,
            &mut s,
        );
        assert_eq!(late.outcome, Outcome::UsageError, "{}", late.text);
        assert!(late.text.contains("machine= must precede"), "{}", late.text);
    }
}
