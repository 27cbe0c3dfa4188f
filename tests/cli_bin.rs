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
    // Four nodes unless the flags name a count: a repeated flag is a
    // usage error.
    let mut args = vec![file.str()];
    if !flags.contains(&"--nodes") {
        args.extend(["--nodes", "4"]);
    }
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

/// Past the staleness pass's proof budget (`lmad::COVER_LIMIT`, 2²¹
/// elements) a slave's band is proved collected one index member at a
/// time. With one member a wire message, rank 1's 85 × 170 × 170 band
/// of the cube matched none of its 28 900 column pieces and was
/// reported as an elided collect (VPCE006, exit 2); its collect op's
/// union has the band's normal form.
#[test]
fn a_collected_band_past_the_proof_budget_is_not_called_elided() {
    let cube = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/cube.f");
    for g in ["fine", "coarse"] {
        let out = vpcec(&[cube, "--nodes", "2", "--param", "N=170", "--grain", g, "--lint"], None);
        assert_eq!(out.status.code(), Some(0), "{g}: {}", stdout(&out));
        assert_eq!(stdout(&out), "lint: CUBE: clean (no RMA conflicts)\n");
    }
}

/// A stride-2 store over a cube, collected at middle grain: rank 1's
/// collect op is one bounding run per column, which holds every even
/// element it wrote. Past the proof budget (N=200: 4 000 000 accesses)
/// the union of runs is neither the write's normal form nor one
/// contiguous member, and the write was reported as an elided collect
/// (VPCE006, exit 2) though N=120 was clean; the union holds the write
/// column by column at any size.
#[test]
fn a_strided_store_collected_in_column_runs_past_the_proof_budget_is_clean() {
    const HALF3: &str = "      PROGRAM HALF3\n      PARAMETER (N = 16)\n      REAL X(2*N+2,N,N)\n      INTEGER I, J, K\n      \
                         DO K = 1, N\n        DO J = 1, N\n          DO I = 1, N\n            X(2*I,J,K) = 1.0\n          \
                         ENDDO\n        ENDDO\n      ENDDO\n      END\n";
    let src = Scratch::new("half3.f");
    std::fs::write(&src.0, HALF3).unwrap();
    for n in ["N=120", "N=200"] {
        let out = vpcec(&[src.str(), "--nodes", "2", "--param", n, "--grain", "middle", "--lint"], None);
        assert_eq!(out.status.code(), Some(0), "{n}: {}", stdout(&out));
        assert_eq!(stdout(&out), "lint: HALF3: clean (no RMA conflicts)\n", "{n}");
    }
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

/// A torus whose cell count overflows a `usize` is one typed VPCE505
/// line and a usage exit, in the debug build too: the product used to
/// panic there ("attempt to multiply with overflow") and wrap to 0 in
/// release ("4 nodes do not fit").
#[test]
fn torus3d_dims_past_usize_are_one_vpce505_line() {
    let mm = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/mm.f");
    let file = Scratch::new("huge.machine");
    let side = "4194304";
    let dims = format!("dim_x = {side}\ndim_y = {side}\ndim_z = {side}\n");
    std::fs::write(&file.0, format!("[topology]\nkind = torus3d\n{dims}")).unwrap();
    let out = vpcec(
        &[mm, "--nodes", "4", "--analytic", "--machine", file.str()],
        None,
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        !err.contains("panicked") && !err.contains("backtrace"),
        "{err}"
    );
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(
        stdout(&out),
        format!(
            "error: machine `paper`: VPCE505: torus3d dims {side}x{side}x{side} \
             overflow the cell and link counts\n"
        )
    );
}

/// `--verify` explores at most 32 ranks (a state's crash mask is a
/// `u32`): a larger plan is one typed VPCE209 line on stderr and a
/// usage exit, nothing on stdout — it used to panic (exit 101).
#[test]
fn verify_above_32_ranks_is_a_typed_refusal() {
    let mm = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/mm.f");
    for nodes in ["33", "64"] {
        let out = vpcec(&[mm, "--nodes", nodes, "--param", "N=64", "--verify"], None);
        assert_eq!(out.status.code(), Some(1), "{nodes}: {}", stdout(&out));
        assert!(stdout(&out).is_empty(), "{nodes}: {}", stdout(&out));
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "error: --verify [VPCE209] explores at most 32 ranks (a state's crash mask is 32 \
                 bits); this plan has {nodes}\n"
            )
        );
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

/// A fault-spec value outside its range is one typed `VPCE322` line in
/// every door — the command line, a `--batch` job and a `--serve` job —
/// never a panic, a negative delay or a silent clamp.
#[test]
fn fault_spec_values_are_typed_refusals_in_every_door() {
    let mm = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/mm.f");
    for spec in [
        "stall=1,stall_s=nan",
        "stall=1,stall_s=-1",
        "stall=1,stall_s=inf",
        "nicstall=1,nicstall_s=-5",
        "backoff_s=1e400",
        "slow=1,slow_factor=nan",
        "slow=1,slow_factor=0.5",
        "bus=1,bus_attempts=0",
    ] {
        let out = vpcec(&[mm, "--nodes", "2", "--param", "N=16", "--faults", spec], None);
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(1), "{spec}: {}", stdout(&out));
        assert!(out.stdout.is_empty(), "{spec}: nothing ran: {}", stdout(&out));
        assert_eq!(err.lines().filter(|l| l.contains("[VPCE322]")).count(), 1, "{spec}: {err}");
        assert!(err.starts_with("error: --faults [VPCE322] "), "{spec}: {err}");
        assert!(!err.contains("panicked"), "{spec}: {err}");
        let jobs = format!("nodes=4\njob name=a workload=mm ranks=2 param:N=8 faults={spec}\n");
        let batch = vpcec(&["--batch", "-"], Some(&jobs));
        let err = String::from_utf8_lossy(&batch.stderr).into_owned();
        assert_eq!(batch.status.code(), Some(1), "{spec}: {}", stdout(&batch));
        assert!(err.starts_with("error: jobfile line 2: error[VPCE312] "), "{spec}: {err}");
        assert!(err.contains("[VPCE322]") && !err.contains("panicked"), "{spec}: {err}");
        let serve = vpcec(&["--serve", "-"], Some(&jobs));
        let text = stdout(&serve);
        assert_eq!(serve.status.code(), Some(1), "{spec}: {text}");
        assert_eq!(text.lines().count(), 1, "{spec}: {text}");
        assert!(text.contains("VPCE307") && text.contains("[VPCE322]"), "{spec}: {text}");
        assert!(serve.stderr.is_empty(), "{spec}: {}", String::from_utf8_lossy(&serve.stderr));
    }
}

/// A non-UTF-8 argument is one usage line, not a panic in argument
/// decoding.
#[cfg(unix)]
#[test]
fn a_non_utf8_argument_is_a_usage_line() {
    use std::os::unix::ffi::OsStrExt as _;
    let out = Command::new(env!("CARGO_BIN_EXE_vpcec"))
        .arg(std::ffi::OsStr::from_bytes(&[0xff]))
        .output()
        .expect("run vpcec");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.starts_with("error: ") && err.contains("not UTF-8"), "{err}");
    assert!(out.stdout.is_empty());
}

/// A fresh directory holding the inputs the flag walk runs against.
struct Dir(PathBuf);

impl Dir {
    fn new(name: &str) -> Dir {
        let p = std::env::temp_dir().join(format!("vpcec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        for f in ["mm", "swim", "saxpy", "racy", "deadlock"] {
            std::fs::copy(format!("{examples}/fortran/{f}.f"), p.join(format!("{f}.f"))).unwrap();
        }
        std::fs::copy(format!("{examples}/jobs/drain.jobs"), p.join("d.jobs")).unwrap();
        let write = |n: &str, t: &str| std::fs::write(p.join(n), t).unwrap();
        write("j.jobs", JOBFILE);
        write("n.jobs", "seed=1\njob name=a workload=mm ranks=2 param:N=8\njob name=b workload=mm ranks=2 param:N=8\n");
        write("s.jobs", "nodes=4\nseed=7\nstorm count=2 prefix=s workload=mm ranks=2 param:N=8 mean-gap=1e-4\n");
        Dir(p)
    }

    /// Run `vpcec` here; every file the run leaves is part of its
    /// output.
    fn run(&self, args: &str) -> (Option<i32>, String, String, Vec<(String, Vec<u8>)>) {
        let out = Command::new(env!("CARGO_BIN_EXE_vpcec"))
            .args(args.split_whitespace())
            .current_dir(&self.0)
            .stdin(Stdio::null())
            .output()
            .expect("run vpcec");
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&self.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(&p).unwrap()))
            .collect();
        files.sort();
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.code(), text(&out.stdout), text(&out.stderr), files)
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// For every flag and every mode a flag applies to: an invocation, and
/// the words that add the flag to it, such that the output — exit code,
/// stdout, stderr and files written — differs with and without them.
const WITNESSES: &[(&str, &str, &str, &str)] = &[
    ("--nodes", "run", "mm.f --param N=16 --grain fine", "--nodes 2"),
    ("--nodes", "--lint", "swim.f --lint --grain fine", "--nodes 2"),
    ("--nodes", "--verify", "mm.f --verify --grain fine --param N=16", "--nodes 2"),
    ("--nodes", "--batch", "--batch n.jobs", "--nodes 2"),
    ("--grain", "run", "mm.f --param N=16", "--grain coarse"),
    ("--grain", "--lint", "swim.f --lint", "--grain fine"),
    ("--grain", "--verify", "swim.f --verify", "--grain fine"),
    ("--schedule", "run", "mm.f --param N=16 --grain fine", "--schedule cyclic"),
    ("--schedule", "--lint", "racy.f --lint --grain coarse --unsafe-collect", "--schedule cyclic"),
    ("--schedule", "--verify", "mm.f --verify", "--schedule cyclic"),
    ("--analytic", "run", "mm.f --param N=16 --grain fine", "--analytic"),
    ("--analytic", "--batch", "--batch j.jobs", "--analytic"),
    ("--analytic", "--serve", "--serve j.jobs", "--analytic"),
    ("--param", "run", "mm.f --grain fine", "--param N=16"),
    ("--param", "--lint", "swim.f --nodes 16 --lint --grain fine", "--param N=400"),
    ("--param", "--verify", "mm.f --verify --grain fine", "--param N=16"),
    ("--report", "run", "mm.f --param N=16 --grain fine", "--report"),
    ("--report", "--lint", "mm.f --lint --grain fine", "--report"),
    ("--report", "--verify", "mm.f --verify --grain fine", "--report"),
    ("--advise", "run", "mm.f --param N=16", "--advise"),
    ("--advise", "--lint", "mm.f --lint", "--advise"),
    ("--advise", "--verify", "mm.f --verify", "--advise"),
    ("--no-avpg", "run", "swim.f --grain fine", "--no-avpg"),
    ("--no-avpg", "--lint", "swim.f --lint --grain fine", "--no-avpg"),
    ("--no-avpg", "--verify", "mm.f --verify", "--no-avpg"),
    ("--prototype", "run", "mm.f --param N=16 --grain fine", "--prototype"),
    ("--prototype", "--lint", "swim.f --lint", "--prototype"),
    ("--prototype", "--verify", "swim.f --verify", "--prototype"),
    ("--machine", "run", "mm.f --param N=16 --grain fine", "--machine fast-ethernet"),
    ("--machine", "--lint", "swim.f --nodes 8 --lint", "--machine conventional"),
    ("--machine", "--verify", "mm.f --verify", "--machine fast-ethernet"),
    ("--machine", "--batch", "--batch j.jobs", "--machine fast-ethernet"),
    ("--machine", "--serve", "--serve j.jobs", "--machine fast-ethernet"),
    ("--machine", "--machine-dump", "--machine-dump", "--machine torus3d"),
    ("--machine-dump", "--machine-dump", "", "--machine-dump"),
    ("--pull", "run", "mm.f --param N=16 --grain fine", "--pull"),
    ("--pull", "--lint", "swim.f --lint", "--pull"),
    ("--pull", "--verify", "swim.f --verify", "--pull"),
    ("--lint", "--lint", "mm.f --grain fine", "--lint"),
    ("--lint", "run", "mm.f --grain fine", "--lint"),
    ("--lint-json", "--lint", "mm.f --lint --grain fine", "--lint-json l.json"),
    ("--verify", "--verify", "mm.f --grain fine", "--verify"),
    ("--verify", "run", "mm.f --grain fine", "--verify"),
    ("--verify-json", "--verify", "mm.f --verify --grain fine", "--verify-json v.json"),
    ("--verify-strict-pools", "--verify", "deadlock.f --verify --grain coarse --no-avpg", "--verify-strict-pools"),
    ("--unsafe-collect", "run", "saxpy.f --grain coarse --schedule cyclic", "--unsafe-collect"),
    ("--unsafe-collect", "--lint", "racy.f --lint --grain coarse --schedule cyclic", "--unsafe-collect"),
    ("--unsafe-collect", "--verify", "swim.f --nodes 2 --verify --grain coarse --schedule cyclic", "--unsafe-collect"),
    ("--trace", "run", "mm.f --param N=16 --grain fine", "--trace t.json"),
    ("--trace", "--batch", "--batch j.jobs", "--trace t.json"),
    ("--trace", "--serve", "--serve j.jobs", "--trace t.json"),
    ("--trace-summary", "run", "mm.f --param N=16 --grain fine", "--trace-summary"),
    ("--faults", "run", "mm.f --param N=16 --grain fine", "--faults light,seed=1"),
    ("--faults", "--verify", "mm.f --verify --grain fine", "--faults crash=0.5,seed=1"),
    ("--recover", "run", "mm.f --param N=16 --grain fine", "--recover on"),
    ("--batch", "--batch", "", "--batch j.jobs"),
    ("--sched-seed", "--batch", "--batch s.jobs", "--sched-seed 8"),
    ("--probation", "--batch", "--batch d.jobs", "--probation 1"),
    ("--batch-json", "--batch", "--batch j.jobs", "--batch-json b.json"),
    ("--batch-json", "--serve", "--serve j.jobs", "--batch-json b.json"),
    ("--serve", "--serve", "", "--serve j.jobs"),
    ("--journal", "--serve", "--serve j.jobs", "--journal j.log"),
    ("--kill-after", "--serve", "--serve j.jobs", "--kill-after 150"),
    ("--status", "--serve", "--serve j.jobs", "--status a"),
];

/// No flag is silent: walking the flag table × the six modes, each
/// pair is either backed by a witness whose output bytes the flag
/// changes — every mode the flag's row declares has one — or refused:
/// exit 1, nothing run, a first stderr line naming the flag. `--help`
/// lists exactly the table's flags.
#[test]
fn every_flag_is_refused_outside_its_modes_or_witnessed_inside_them() {
    let base = ["mm.f", "mm.f --lint", "mm.f --verify", "--batch j.jobs", "--serve j.jobs", "--machine-dump"];
    let mut silent = Vec::new();
    for flag in vpce::cli::FLAGS {
        let words = WITNESSES.iter().find(|w| w.0 == flag.name).map(|w| w.3);
        let words = words.unwrap_or_else(|| panic!("{} has no witness", flag.name));
        for (bit, mode) in vpce::cli::MODES.iter().enumerate() {
            let witness = WITNESSES.iter().find(|w| w.0 == flag.name && w.1 == *mode);
            // `--lint` and `--verify` turn a run into their own mode.
            let Some((_, _, args, words)) = witness else {
                assert_eq!(flag.modes & (1 << bit), 0, "{} in {mode} has no witness", flag.name);
                let dir = Dir::new("refused");
                let (code, out, err, _) = dir.run(&format!("{} {words}", base[bit]));
                assert_eq!(code, Some(1), "{} in {mode}: {out}{err}", flag.name);
                assert!(out.is_empty(), "{} in {mode}: nothing runs: {out}", flag.name);
                let first = err.lines().next().unwrap_or_default();
                assert!(first.starts_with("error: ") && first.contains(flag.name), "{} in {mode}: {err}", flag.name);
                continue;
            };
            let without = Dir::new("without").run(args);
            let with = Dir::new("with").run(&format!("{args} {words}"));
            if with == without {
                silent.push(format!("{} in {mode}: `{args}` ± `{words}`", flag.name));
            }
        }
    }
    assert!(silent.is_empty(), "silent flags:\n{}", silent.join("\n"));
    let help = stdout(&vpcec(&["--help"], None));
    let listed: Vec<&str> = help
        .lines()
        .filter_map(|l| l.strip_prefix("  --"))
        .map(|l| &l[..l.find(' ').unwrap_or(l.len())])
        .collect();
    let table: Vec<&str> = vpce::cli::FLAGS.iter().map(|f| &f.name[2..]).collect();
    assert_eq!(listed, table, "{help}");
    assert_eq!(table.len(), 30, "one row per flag, and no flag added");
}

/// Every surface refuses a repeated key with its own typed code, and
/// every command that used to drop a flag or a key without a word is a
/// one-line refusal now.
#[test]
fn repeated_keys_and_ignored_flags_are_refused() {
    let dir = Dir::new("repeats");
    std::fs::write(dir.0.join("twice.machine"), "[nic]\npost_s = 1e-6\npost_s = 2e-6\n").unwrap();
    std::fs::write(dir.0.join("hdr.jobs"), "nodes=4\nnodes=8\njob name=a workload=mm ranks=2\n").unwrap();
    std::fs::write(dir.0.join("rec.jobs"), "nodes=8\njob name=a workload=mm ranks=2 ranks=4\n").unwrap();
    std::fs::write(dir.0.join("par.jobs"), "nodes=8\njob name=a workload=mm ranks=2 param:N=8 param:n=16\n").unwrap();
    std::fs::write(dir.0.join("cancel.jobs"), format!("{JOBFILE}cancel name=a at=1 at=2\n")).unwrap();
    for (args, line) in [
        ("mm.f --nodes 2 --nodes 8", "error: --nodes is given twice; give each flag once"),
        ("mm.f --grain coarse --grain fine", "error: --grain is given twice; give each flag once"),
        ("mm.f --param N=16 --param n=32", "error: --param repeats `N`: give each PARAMETER once"),
        ("mm.f --faults seed=1,seed=2", "error: --faults [VPCE320] duplicate --faults key 'seed'"),
        ("mm.f --recover interval=1,interval=2", "error: --recover duplicate key `interval`"),
        ("--batch hdr.jobs", "error: hdr.jobs line 2: error[VPCE316] duplicate key `nodes`"),
        ("--batch rec.jobs", "error: rec.jobs line 2: error[VPCE316] duplicate key `ranks`"),
        ("--batch par.jobs", "error: par.jobs line 2: error[VPCE316] duplicate key `param:n`"),
        ("--machine twice.machine mm.f", "error: --machine twice.machine: VPCE506: `post_s` is set twice in [nic]: give each once"),
        ("mm.f --lint --trace z.json", "error: --trace applies only to run, --batch or --serve (this invocation: --lint)"),
        ("mm.f --lint --trace-summary", "error: --trace-summary applies only to run (this invocation: --lint)"),
        ("mm.f --verify --trace-summary", "error: --trace-summary applies only to run (this invocation: --verify)"),
        ("mm.f --lint --analytic", "error: --analytic applies only to run, --batch or --serve (this invocation: --lint)"),
        ("mm.f --lint-json x.json", "error: --lint-json applies only to --lint (this invocation: run)"),
        ("mm.f --batch-json y.json", "error: --batch-json applies only to --batch or --serve (this invocation: run)"),
        ("mm.f --verify-strict-pools", "error: --verify-strict-pools applies only to --verify (this invocation: run)"),
        ("mm.f --sched-seed 3", "error: --sched-seed applies only to --batch (this invocation: run)"),
        ("--batch j.jobs --grain fine", "error: --grain applies only to run, --lint or --verify (this invocation: --batch)"),
        ("--batch j.jobs --faults light", "error: --faults applies only to run or --verify (this invocation: --batch)"),
        ("--batch j.jobs --param N=8", "error: --param applies only to run, --lint or --verify (this invocation: --batch)"),
        ("--serve j.jobs --nodes 8", "error: --nodes applies only to run, --lint, --verify or --batch (this invocation: --serve)"),
    ] {
        let (code, out, err, _) = dir.run(args);
        assert_eq!(code, Some(1), "{args}: {out}{err}");
        assert!(out.is_empty(), "{args}: nothing runs: {out}");
        let first = err.lines().next().unwrap_or_default();
        assert!(first.starts_with(line), "{args}: {err}");
    }
    // The serve verb `cancel` refuses its repeat as a bad command.
    let (code, out, _, _) = dir.run("--serve cancel.jobs");
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("VPCE307") && out.contains("duplicate key `at`"), "{out}");
}
