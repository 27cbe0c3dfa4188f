//! End-to-end tests of the `vpcec` binary itself: stdin-fed jobfiles
//! (`--batch -`), the `--serve` daemon with a durable `--journal`, and
//! the `--kill-after` crash drill, and the exit discipline of errors a
//! program fails with while it runs. Everything below runs the real
//! executable via `CARGO_BIN_EXE_vpcec`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const JOBFILE: &str = "nodes=4\nseed=1\n\
                       job name=a workload=mm ranks=2 param:N=8\n\
                       job name=b workload=mm ranks=2 param:N=8 arrive=1e-4\n";

fn vpcec(args: &[&str], stdin: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vpcec"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd.stdin(if stdin.is_some() { Stdio::piped() } else { Stdio::null() });
    let mut child = cmd.spawn().expect("spawn vpcec");
    if let Some(text) = stdin {
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(text.as_bytes())
            .expect("feed stdin");
    }
    child.wait_with_output().expect("wait vpcec")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch path that cleans itself up.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let p = std::env::temp_dir().join(format!("vpcec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        Scratch(p)
    }
    fn str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn batch_reads_the_jobfile_from_stdin() {
    let out = vpcec(&["--batch", "-"], Some(JOBFILE));
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("2 submitted | 2 done"), "{text}");
    // Identical to reading the same jobfile from a file.
    let file = Scratch::new("jobs.txt");
    std::fs::write(&file.0, JOBFILE).unwrap();
    let from_file = vpcec(&["--batch", file.str()], None);
    assert_eq!(text, stdout(&from_file));
}

/// The batch door picks a grain the way `vpcec` does: by simulating
/// every grain on the job's partition. MM at N=96 on 2 ranks is a job
/// where fine grain is cheaper than coarse; six nodes hold all three
/// jobs at once, so each makespan is the job's own run.
#[test]
fn the_batch_door_picks_the_grain_vpcec_picks() {
    let jobfile = "nodes=6\nseed=1\n\
                   job name=auto workload=mm ranks=2 param:N=96\n\
                   job name=fine workload=mm ranks=2 param:N=96 grain=fine\n\
                   job name=coarse workload=mm ranks=2 param:N=96 grain=coarse\n";
    let out = vpcec(&["--batch", "-", "--analytic"], Some(jobfile));
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    let makespan = |job: &str| {
        let row = text.lines().find(|l| l.split_whitespace().next() == Some(job));
        let row = row.unwrap_or_else(|| panic!("no row `{job}`: {text}"));
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols[5], "0.000000", "`{job}` waited: {text}");
        cols[6].to_string()
    };
    assert_eq!(makespan("fine"), "0.062200", "{text}");
    assert_eq!(makespan("coarse"), "0.064185", "{text}");
    assert_eq!(makespan("auto"), makespan("fine"), "{text}");
    // `vpcec` itself picks fine for the same program on two nodes.
    let mm = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/mm.f");
    let args = [mm, "--nodes", "2", "--param", "N=96", "--analytic", "--advise"];
    let advised = stdout(&vpcec(&args, None));
    assert!(advised.contains("  picked: fine\n"), "{advised}");
}

#[test]
fn serve_reads_the_script_from_stdin_and_journals_to_disk() {
    let journal = Scratch::new("serve.journal");
    let out = vpcec(&["--serve", "-", "--journal", journal.str()], Some(JOBFILE));
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("2 submitted | 2 done"), "{}", stdout(&out));
    let log = std::fs::read_to_string(&journal.0).unwrap();
    assert!(log.contains(" I nodes=4"), "{log}");
    assert!(log.contains(" F report="), "sealed journal: {log}");

    // Reopening the sealed journal replays (status verb works without
    // resubmitting anything).
    let again = vpcec(
        &["--serve", "-", "--journal", journal.str(), "--status", "a"],
        Some(""),
    );
    assert!(again.status.success(), "{}", stdout(&again));
    let text = stdout(&again);
    assert!(text.contains("recovery #1"), "{text}");
    assert!(text.contains("a done"), "{text}");
}

#[test]
fn kill_after_exits_3_and_a_restart_recovers() {
    let journal = Scratch::new("killed.journal");
    let dead = vpcec(
        &["--serve", "-", "--journal", journal.str(), "--kill-after", "150"],
        Some(JOBFILE),
    );
    assert_eq!(dead.status.code(), Some(3), "{}", stdout(&dead));
    assert!(stdout(&dead).contains("killed"), "{}", stdout(&dead));
    assert!(std::fs::metadata(&journal.0).unwrap().len() <= 150);

    // The baseline that never died.
    let clean = vpcec(&["--serve", "-"], Some(JOBFILE));
    assert!(clean.status.success(), "{}", stdout(&clean));

    // Restart on the torn journal: byte-identical report below the
    // recovery banner.
    let recovered = vpcec(&["--serve", "-", "--journal", journal.str()], Some(JOBFILE));
    assert!(recovered.status.success(), "{}", stdout(&recovered));
    let text = stdout(&recovered);
    assert!(text.ends_with(&stdout(&clean)), "clean:\n{}\nrecovered:\n{text}", stdout(&clean));
}

#[test]
fn usage_error_exits_1_and_mentions_serve() {
    let out = vpcec(&["--journal", "j.log"], None);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--serve"), "{err}");
}

#[test]
fn flag_pairs_that_would_drop_one_flag_are_usage_errors() {
    let mm = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/mm.f");
    let grain = "error: --grain and --advise both settle the granularity; give one";
    let check = "error: --lint and --verify both replace the run with a static check; give one";
    for (pair, line) in [
        (&["--grain", "fine", "--advise"][..], grain),
        (&["--lint", "--verify"][..], check),
    ] {
        let mut args = vec![mm];
        args.extend_from_slice(pair);
        let out = vpcec(&args, None);
        assert_eq!(out.status.code(), Some(1), "{pair:?}: {}", stdout(&out));
        assert!(out.stdout.is_empty(), "{pair:?}: nothing ran: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(err.lines().next(), Some(line), "{pair:?}: {err}");
    }
}

/// Run `source` through the binary; an error the program fails with
/// must be one typed line on stdout, exit 3, and no panic text anywhere.
fn run_source(name: &str, source: &str, flags: &[&str]) -> (Option<i32>, String) {
    let file = Scratch::new(name);
    std::fs::write(&file.0, source).unwrap();
    let mut args = vec![file.str(), "--nodes", "4"];
    args.extend_from_slice(flags);
    let out = vpcec(&args, None);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!err.contains("panicked") && !err.contains("backtrace"), "{err}");
    (out.status.code(), stdout(&out))
}

#[test]
fn mixed_type_scalar_assignment_is_identical_to_sequential() {
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
    let (code, text) = run_source("mixed.f", MIXED, &[]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("identical to sequential execution: true"), "{text}");
}

#[test]
fn nan_results_are_identical_when_their_bits_are() {
    // Every element is the SQRT of a negative REAL, a NaN, and NaN != NaN:
    // compared by value, bit-identical runs printed `false`.
    const NAN: &str = "
      PROGRAM T
      REAL A(16)
      INTEGER I
      DO I = 1, 16
        A(I) = SQRT(REAL(I) - 100.0)
      ENDDO
      END
";
    let (code, text) = run_source("nan.f", NAN, &["--nodes", "2", "--grain", "coarse"]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("identical to sequential execution: true"), "{text}");
}

#[test]
fn analytic_refuses_an_array_valued_loop_bound_with_exit_3() {
    const BOUND: &str = "
      PROGRAM T
      PARAMETER (N = 16)
      REAL A(N), NB(N)
      INTEGER I, K
      DO I = 1, N
        NB(I) = REAL(MOD(I, 3) + 1)
      ENDDO
      DO I = 1, N
        A(I) = 0.0
        DO K = 1, NB(I)
          A(I) = A(I) + REAL(K)
        ENDDO
      ENDDO
      END
";
    let (code, text) = run_source("bound.f", BOUND, &["--analytic"]);
    assert_eq!(code, Some(3), "{text}");
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.starts_with("error: ") && text.contains("DO K"), "{text}");
    // Full execution computes the bound and runs.
    let (code, text) = run_source("bound_full.f", BOUND, &[]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("identical to sequential execution: true"), "{text}");
}

#[test]
fn mod_by_zero_is_a_typed_error_with_exit_3() {
    const MOD_ZERO: &str = "
      PROGRAM T
      PARAMETER (N = 16)
      REAL A(N)
      INTEGER I, Z
      Z = 0
      DO I = 1, N
        A(I) = REAL(MOD(I, Z))
      ENDDO
      END
";
    let (code, text) = run_source("modz.f", MOD_ZERO, &[]);
    assert_eq!(code, Some(3), "{text}");
    assert_eq!(text, "error: integer division by zero\n");
}

/// `DO I = 1, N + 1` over `A(N)`: one store past the end of `A`.
const PAST_THE_END: &str = "
      PROGRAM OOB
      PARAMETER (N = 16)
      REAL A(N)
      INTEGER I
      DO I = 1, N + 1
        A(I) = 1.0
      ENDDO
      END
";

#[test]
fn typed_failures_are_one_line_on_stdout_and_nothing_on_stderr() {
    const DIV_ZERO: &str = "
      PROGRAM T
      PARAMETER (N = 16)
      REAL A(N)
      INTEGER I, Z
      Z = 0
      DO I = 1, N
        A(I) = REAL(I / Z)
      ENDDO
      END
";
    let mm = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/mm.f");
    let file = |name: &str, source: &str| {
        let file = Scratch::new(name);
        std::fs::write(&file.0, source).unwrap();
        file
    };
    let (div, oob) = (file("quiet_div.f", DIV_ZERO), file("quiet_oob.f", PAST_THE_END));
    let mm_fine = [mm, "--nodes", "4", "--param", "N=16", "--grain", "fine"];
    let table: [(Vec<&str>, &str); 6] = [
        (vec![div.str(), "--nodes", "4"], "error: integer division by zero"),
        (
            [&mm_fine[..], &["--faults", "crashy"]].concat(),
            "error: rank 1 crashed (fault schedule) at L7",
        ),
        (
            [&mm_fine[..], &["--faults", "drop=1.0"]].concat(),
            "error: link failure: packet 1->0 lost after 9 attempts",
        ),
        (
            vec![oob.str(), "--nodes", "4", "--grain", "coarse"],
            "error: store out of bounds: array A index 16 len 16",
        ),
        (
            vec![oob.str(), "--nodes", "4", "--grain", "coarse", "--analytic"],
            "error: RMA past end of window: offset 15 + len 2 > size 16 on target rank 0",
        ),
        // No `--grain`: the advisor's analytic simulation fails first.
        (
            vec![oob.str(), "--nodes", "4"],
            "error: RMA past end of window: offset 15 + len 2 > size 16 on target rank 0",
        ),
    ];
    for (args, line) in table {
        let out = vpcec(&args, None);
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {text}");
        assert_eq!(text.lines().count(), 1, "{args:?}: {text}");
        assert!(text.starts_with(line), "{args:?}: {text}");
        assert!(out.stderr.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn lint_flags_a_footprint_past_its_window_with_vpce007() {
    let (code, text) = run_source("lint_oob.f", PAST_THE_END, &["--grain", "coarse", "--lint"]);
    assert_eq!(code, Some(2), "{text}");
    let flagged: Vec<&str> = text.lines().filter(|l| l.starts_with("error[VPCE007] window A")).collect();
    assert_eq!(flagged.len(), 2, "the collect PUT and the compute store: {text}");
    assert!(text.ends_with("lint: OOB: 2 error(s), 0 warning(s)\n"), "{text}");
}

#[test]
fn zero_nodes_is_the_vpce505_usage_line_on_the_builtin_machines() {
    let mm = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/mm.f");
    let torus = vpcec(&[mm, "--nodes", "0", "--machine", "torus3d"], None);
    for (flags, machine) in [
        (&[][..], "paper"),
        (&["--lint"][..], "paper"),
        (&["--grain", "fine"][..], "paper"),
        (&["--prototype"][..], "prototype"),
    ] {
        let mut args = vec![mm, "--nodes", "0"];
        args.extend_from_slice(flags);
        let out = vpcec(&args, None);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!err.contains("panicked") && !err.contains("backtrace"), "{err}");
        assert_eq!(
            stdout(&out),
            format!("error: machine `{machine}`: VPCE505: a machine holds at least one node\n"),
            "{flags:?}"
        );
        assert_eq!(out.status.code(), torus.status.code(), "same exit as --machine");
    }
}

#[test]
fn overriding_an_undeclared_parameter_names_the_declared_ones() {
    let mm = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/mm.f");
    for kv in ["NN=32", "=32"] {
        let args = [mm, "--nodes", "4", "--param", kv, "--analytic", "--grain", "coarse"];
        let out = vpcec(&args, None);
        assert_eq!(out.status.code(), Some(1), "{kv}: {}", stdout(&out));
        assert!(stdout(&out).is_empty(), "{kv}: nothing ran: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.starts_with("compile error: "), "{err}");
        assert!(err.contains("(declared PARAMETERs: N)"), "{err}");
    }

    // The jobfile door shares the check: the job is refused at admission.
    let json = Scratch::new("nn.json");
    let jobs = "nodes=4\njob name=a workload=mm ranks=2 param:NN=8\n";
    let out = vpcec(&["--batch", "-", "--batch-json", json.str()], Some(jobs));
    assert_eq!(out.status.code(), Some(4), "{}", stdout(&out));
    let report = std::fs::read_to_string(&json.0).unwrap();
    assert!(report.contains("\"error_kind\": \"admission-rejected\""), "{report}");
    let line = report.lines().find(|l| l.contains("\"error\": ")).expect("an error line");
    assert!(line.contains("no PARAMETER `NN`") && line.contains("(declared PARAMETERs: N)"), "{line}");
}
