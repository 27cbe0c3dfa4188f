//! `vpcec` — the command-line front door of the environment:
//! compile an F77-mini program and run it on the simulated V-Bus
//! cluster, statically lint its communication plan (`--lint`), run a
//! whole jobfile through the gang scheduler (`--batch`), or drive the
//! persistent job service (`--serve`). All logic lives in `vpce::cli`
//! (unit-tested); this binary only does I/O, and every exit funnels
//! through the one `Outcome` table.

use std::io::Read as _;
use std::path::Path;
use std::process::ExitCode;

use vpce::cli::{self, Outcome};

fn exit(outcome: Outcome) -> ExitCode {
    ExitCode::from(u8::try_from(outcome.exit_code()).unwrap_or(1))
}

/// The one way out of a mode that ran: print the report, write each
/// side file the arguments asked for and the mode produced, and exit
/// with the run's outcome.
fn emit(args: &cli::CliArgs, out: cli::RunOutput) -> ExitCode {
    print!("{}", out.text);
    eprint!("{}", out.stderr);
    // `--batch` and `--serve` trace the whole machine, not one run.
    let whole_machine = args.batch.is_some() || args.serve.is_some();
    let trace = if whole_machine {
        "cluster timeline"
    } else {
        "trace"
    };
    let side_files = [
        (&args.lint_json, &out.lint_json, "lint JSON"),
        (&args.verify_json, &out.verify_json, "verify JSON"),
        (&args.batch_json, &out.batch_json, "batch report"),
        (&args.trace, &out.trace_json, trace),
    ];
    for (path, contents, what) in side_files {
        let (Some(path), Some(contents)) = (path, contents) else {
            continue;
        };
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("error: cannot write {what} {path}: {e}");
            return exit(Outcome::IoError);
        }
    }
    if let (Some(path), Some(_)) = (&args.trace, &out.trace_json) {
        eprintln!("{trace} written to {path} (load in ui.perfetto.dev)");
    }
    exit(out.outcome)
}

fn main() -> ExitCode {
    // A non-UTF-8 argument is a usage error, never a panic.
    let argv: Result<Vec<String>, _> = std::env::args_os().skip(1).map(|a| a.into_string()).collect();
    let argv = match argv {
        Ok(argv) => argv,
        Err(bad) => {
            eprintln!("error: argument {bad:?} is not UTF-8");
            return exit(Outcome::UsageError);
        }
    };
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        print!("{}", cli::usage());
        return exit(Outcome::Success);
    }
    let mut args = match cli::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::usage());
            return exit(Outcome::UsageError);
        }
    };

    // Resolve --machine before any mode runs: built-in name, or a
    // .machine file whose include= names resolve relative to its own
    // directory (like jobfile src= paths).
    if let Some(op) = args.machine.clone() {
        let dir = Path::new(&op)
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_default();
        let top = op.clone();
        let loader = move |p: &str| -> Result<String, String> {
            let pb = Path::new(p);
            let full = if p == top || pb.is_absolute() {
                pb.to_path_buf()
            } else {
                dir.join(pb)
            };
            std::fs::read_to_string(&full).map_err(|e| e.to_string())
        };
        match cli::load_machine(&op, &loader) {
            Ok(spec) => args.machine_spec = Some(spec),
            Err(e) => {
                eprintln!("error: {e}");
                return exit(Outcome::UsageError);
            }
        }
    }
    if args.machine_dump {
        return emit(&args, cli::run_machine_dump(&args));
    }

    if let Some(script_path) = args.serve.clone() {
        return run_serve(&script_path, &args);
    }
    if let Some(jobfile_path) = &args.batch {
        return run_batch(jobfile_path, &args);
    }

    let source = match std::fs::read_to_string(&args.source_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.source_path);
            return exit(Outcome::IoError);
        }
    };
    match cli::run(&source, &args) {
        Ok(out) => emit(&args, out),
        Err(e) => {
            eprintln!("compile error: {e}");
            exit(Outcome::UsageError)
        }
    }
}

/// Read an input file, with `-` meaning stdin (so jobfiles and serve
/// scripts can be piped in).
fn read_input(path: &str) -> Result<String, ExitCode> {
    if path == "-" {
        let mut s = String::new();
        return std::io::stdin().read_to_string(&mut s).map(|_| s).map_err(|e| {
            eprintln!("error: cannot read stdin: {e}");
            exit(Outcome::IoError)
        });
    }
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        exit(Outcome::IoError)
    })
}

fn run_serve(script_path: &str, args: &cli::CliArgs) -> ExitCode {
    let script = match read_input(script_path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut mem = vpce_serve::MemStorage::default();
    let mut file;
    let storage: &mut dyn vpce_serve::Storage = match &args.journal {
        Some(path) => match vpce_serve::FileStorage::open(path) {
            Ok(f) => {
                file = f;
                &mut file
            }
            Err(e) => {
                eprintln!("error: {e}");
                return exit(Outcome::IoError);
            }
        },
        None => &mut mem,
    };
    emit(args, cli::run_serve(&script, args, storage))
}

fn run_batch(jobfile_path: &str, args: &cli::CliArgs) -> ExitCode {
    let jobfile = match read_input(jobfile_path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // `src=` paths resolve relative to the jobfile's directory, so a
    // jobfile and its programs travel as one unit.
    let dir = Path::new(jobfile_path)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    let loader = move |p: &str| {
        let pb = Path::new(p);
        let full = if pb.is_absolute() { pb.to_path_buf() } else { dir.join(pb) };
        std::fs::read_to_string(&full).map_err(|e| e.to_string())
    };
    match cli::run_batch(&jobfile, args, &loader) {
        Ok(out) => emit(args, out),
        Err(e) => {
            eprintln!("error: {e}");
            exit(Outcome::UsageError)
        }
    }
}
