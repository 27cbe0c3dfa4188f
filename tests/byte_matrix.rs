//! The byte matrix: every invariance claim about `vpcec` in one
//! committed digest file. Each cell is one invocation run in-process
//! through `cli::run` / `run_batch` / `run_serve` — the five
//! `examples/fortran` programs × nodes {2, 4, 16} × {fine, middle,
//! coarse, advisor} × {`--analytic`, Full at small N} × {paper,
//! `torus3d`} × {no faults, `light` seeds 1–3}, plus the lint, verify,
//! trace, batch, serve and kill–restart endings — and is written as
//! one line of `tests/golden/byte_matrix.txt`: the exit code and the
//! FNV-1a 64 digests of stdout, stderr and every side file. A change
//! that is meant to move bytes regenerates the file with
//! `UPDATE_GOLDEN=1 cargo test --offline -p vpce --test byte_matrix`
//! and explains each re-blessed cell.

use std::fmt::Write as _;

use vpce::cli::{self, CliArgs, RunOutput};

/// FNV-1a, 64 bit: a fixed public function, so a digest in a committed
/// file means the same bytes on every machine.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const PROGRAMS: [&str; 5] = ["deadlock", "mm", "racy", "saxpy", "swim"];
const GRAINS: [&str; 4] = ["--grain fine", "--grain middle", "--grain coarse", ""];
const MACHINES: [&str; 2] = ["paper", "torus3d"];
const JOBFILES: [&str; 3] = ["drain", "storm", "tenants"];

fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_path(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn no_files(p: &str) -> Result<String, String> {
    Err(format!("fixtures are self-contained: `{p}`"))
}

/// Parse a command line the way the binary does, `--machine` resolved.
fn args(line: &str) -> Result<CliArgs, String> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let mut args = cli::parse_args(&argv)?;
    if let Some(m) = &args.machine {
        args.machine_spec = Some(cli::load_machine(m, &no_files)?);
    }
    Ok(args)
}

/// One ending: exit code, stdout, stderr and side files.
struct Ending {
    exit: i32,
    stdout: String,
    stderr: String,
    files: Vec<Option<String>>,
}

impl Ending {
    fn of(out: RunOutput) -> Ending {
        Ending {
            exit: out.exit,
            stdout: out.text,
            stderr: out.stderr,
            files: vec![
                out.lint_json,
                out.verify_json,
                out.trace_json,
                out.batch_json,
            ],
        }
    }

    fn refused(stderr: String) -> Ending {
        Ending {
            exit: 1,
            stdout: String::new(),
            stderr,
            files: Vec::new(),
        }
    }

    fn line(&self, cell: &str) -> String {
        let cell = cell.split_whitespace().collect::<Vec<_>>().join(" ");
        let mut s = format!(
            "{cell} | exit={} out={:016x} err={:016x}",
            self.exit,
            fnv1a64(self.stdout.as_bytes()),
            fnv1a64(self.stderr.as_bytes())
        );
        for f in &self.files {
            match f {
                Some(f) => {
                    let _ = write!(s, " {:016x}", fnv1a64(f.as_bytes()));
                }
                None => s.push_str(" -"),
            }
        }
        s
    }
}

/// A single-program cell: `vpcec <prog>.f <flags>`.
fn program(prog: &str, flags: &str) -> Ending {
    let source = read(&format!("examples/fortran/{prog}.f"));
    let args = match args(&format!("{prog}.f {flags}")) {
        Ok(a) => a,
        Err(e) => return Ending::refused(format!("error: {e}\n")),
    };
    match cli::run(&source, &args) {
        Ok(out) => Ending::of(out),
        Err(e) => Ending::refused(format!("compile error: {e}\n")),
    }
}

fn batch(jobs: &str, flags: &str) -> Ending {
    let text = read(&format!("examples/jobs/{jobs}.jobs"));
    let args = args(&format!("--batch {jobs}.jobs {flags}")).expect("batch cell parses");
    match cli::run_batch(&text, &args, &no_files) {
        Ok(out) => Ending::of(out),
        Err(e) => Ending::refused(format!("error: {e}\n")),
    }
}

fn serve(jobs: &str, flags: &str, storage: &mut vpce_serve::MemStorage) -> Ending {
    let text = read(&format!("examples/jobs/{jobs}.jobs"));
    let args = args(&format!("--serve {jobs}.jobs {flags}")).expect("serve cell parses");
    let mut out = Ending::of(cli::run_serve(&text, &args, storage));
    out.files
        .push(Some(String::from_utf8_lossy(&storage.bytes).into_owned()));
    out
}

/// One or more cells that run together (a kill and its restart share
/// a journal), each line named by its command line.
type Job = Box<dyn Fn() -> Vec<String> + Send + Sync>;

fn cell(name: String, run: impl Fn() -> Ending + Send + Sync + 'static) -> Job {
    Box::new(move || vec![run().line(&name)])
}

/// Every cell, in a fixed order.
fn matrix() -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut program_cell = |prog: &'static str, flags: String| {
        jobs.push(cell(format!("{prog} {flags}"), move || {
            program(prog, &flags)
        }));
    };
    for prog in PROGRAMS {
        for nodes in [2, 4, 16] {
            for grain in GRAINS {
                for machine in MACHINES {
                    let base = format!("--nodes {nodes} {grain} --machine {machine}");
                    for seed in 0..=3 {
                        let faults = match seed {
                            0 => String::new(),
                            s => format!("--faults light,seed={s}"),
                        };
                        program_cell(prog, format!("{base} --analytic {faults}"));
                        program_cell(prog, format!("{base} --param N=16 {faults}"));
                    }
                }
                program_cell(
                    prog,
                    format!("--nodes {nodes} {grain} --lint --lint-json l.json"),
                );
                if nodes <= 4 {
                    let verify = format!("--nodes {nodes} {grain} --verify --verify-json v.json");
                    program_cell(prog, verify);
                }
            }
        }
    }
    for extra in ["", "--unsafe-collect"] {
        program_cell(
            "racy",
            format!("--nodes 4 --grain coarse --schedule cyclic --lint {extra}"),
        );
    }
    for pools in ["", "--verify-strict-pools", "--faults crashy"] {
        program_cell(
            "deadlock",
            format!("--nodes 4 --grain coarse --no-avpg --verify {pools}"),
        );
    }
    for prog in ["mm", "saxpy"] {
        for grain in GRAINS {
            for machine in MACHINES {
                for run in [
                    "--nodes 16 --analytic --param N=64",
                    "--nodes 4 --param N=32",
                ] {
                    let trace = "--trace t.json --trace-summary";
                    program_cell(prog, format!("{run} {grain} --machine {machine} {trace}"));
                }
            }
        }
    }
    for jobfile in JOBFILES {
        for mode in ["", "--analytic"] {
            let flags = format!("{mode} --trace t.json --batch-json b.json");
            let f = flags.clone();
            jobs.push(cell(format!("batch {jobfile} {flags}"), move || {
                batch(jobfile, &f)
            }));
            let f = flags.clone();
            jobs.push(cell(format!("serve {jobfile} {flags}"), move || {
                serve(jobfile, &f, &mut vpce_serve::MemStorage::default())
            }));
            let kill = format!("{mode} --kill-after 400");
            jobs.push(Box::new(move || {
                let mut storage = vpce_serve::MemStorage::default();
                let dead = serve(jobfile, &kill, &mut storage);
                let restarted = serve(jobfile, &flags, &mut storage);
                vec![
                    dead.line(&format!("serve {jobfile} {kill}")),
                    restarted.line(&format!("restart {jobfile} {flags}")),
                ]
            }));
        }
    }
    jobs
}

/// Run the jobs on two threads; the lines keep the jobs' order.
fn run_all(jobs: &[Job]) -> Vec<String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let done = std::sync::Mutex::new(vec![Vec::new(); jobs.len()]);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let lines = job();
                done.lock().unwrap()[i] = lines;
            });
        }
    });
    done.into_inner().unwrap().concat()
}

#[test]
fn every_cell_keeps_its_bytes() {
    let lines = run_all(&matrix());
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let golden_path = repo_path("tests/golden/byte_matrix.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &text).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {golden_path}: {e}"));
    let drifted: Vec<String> = lines
        .iter()
        .zip(expected.lines())
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        drifted.is_empty() && lines.len() == expected.lines().count(),
        "{} of {} cells drifted ({} expected):\n{}\nif intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --offline -p vpce --test byte_matrix",
        drifted.len(),
        lines.len(),
        expected.lines().count(),
        drifted.join("\n")
    );
}
