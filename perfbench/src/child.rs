//! Spawn one `vpcec` process the way a user would — argv in, stdout
//! out — and collect what the kernel knows about it: wall-clock from
//! spawn to exit, and the child's own `rusage` through `wait4`.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux's 64-bit `struct rusage` layout through wait4");

/// Linux `struct rusage` on a 64-bit target: two `timeval`s (seconds,
/// microseconds) and fourteen `long`s, 144 bytes.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    maxrss_kib: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// One finished `vpcec` invocation.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Exit code; -1 when a signal ended the process.
    pub exit: i32,
    pub stdout: String,
    /// Spawn → exit, host seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child.
    pub cpu_s: f64,
    /// The child's `ru_maxrss`. Linux folds the high-water mark of the
    /// address space the child had *before* `exec` into it, so this is
    /// never below the harness's own resident size at spawn time —
    /// which is why end-to-end runs keep the harness small and never
    /// link-and-run the stack in the measuring process.
    pub peak_rss_mb: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

/// Run `program args…` in `cwd` with an empty environment and stdin,
/// capturing stdout into a file in `cwd` (a pipe would need a reader
/// thread racing the timer).
pub fn run(program: &Path, args: &[String], cwd: &Path) -> Result<Finished, String> {
    let out_path = cwd.join("stdout.txt");
    let out = std::fs::File::create(&out_path)
        .map_err(|e| format!("cannot create {}: {e}", out_path.display()))?;
    let mut cmd = Command::new(program);
    cmd.args(args)
        .current_dir(cwd)
        .env_clear()
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null());
    let start = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut ru = RUsage::default();
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through
    // the two pointers, both of which point at live, writable locals
    // of exactly those layouts (`RUsage` is `repr(C)` and matches the
    // 64-bit Linux definition checked by the `compile_error!` above).
    // `pid` is our own un-reaped child: `child` is never waited on
    // through std, so nobody else can reap it or recycle the pid.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    // The process is already reaped; dropping the handle neither waits
    // nor kills.
    drop(child);
    let exit = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    let stdout = std::fs::read_to_string(&out_path)
        .map_err(|e| format!("cannot read {}: {e}", out_path.display()))?;
    Ok(Finished {
        exit,
        stdout,
        wall_s,
        cpu_s: (ru.utime_s + ru.stime_s) as f64 + (ru.utime_us + ru.stime_us) as f64 * 1e-6,
        peak_rss_mb: ru.maxrss_kib as f64 / 1024.0,
        ctx_switches: (ru.nvcsw + ru.nivcsw).max(0) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_output_and_rusage_of_a_real_child() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out/tmp")
            .join(format!("child-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let args = ["-c".to_string(), "echo hello; exit 3".to_string()];
        let done = run(Path::new("/bin/sh"), &args, &dir).unwrap();
        assert_eq!(done.exit, 3);
        assert_eq!(done.stdout, "hello\n");
        assert!(done.wall_s > 0.0 && done.peak_rss_mb > 0.0);
        assert!(run(Path::new("/nonexistent/vpcec"), &[], &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
