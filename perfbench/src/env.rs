//! Where things live. The harness runs from the root of a checkout and
//! reads and writes only below `perfbench/` in it.

use std::path::{Path, PathBuf};

use crate::workloads::Inputs;

#[derive(Debug, Clone)]
pub struct Env {
    /// The `vpcec` under test: built next to this binary by `run.sh`.
    pub vpcec: PathBuf,
    /// Pinned report digests, `perfbench/expected/`.
    pub expected: PathBuf,
    /// Results, traces and sample directories, `perfbench/out/`.
    pub out: PathBuf,
}

impl Env {
    /// Resolve the layout from the current directory (the checkout
    /// root) and this executable's own location.
    pub fn locate() -> Result<Env, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
        let vpcec = exe.with_file_name("vpcec");
        if !vpcec.is_file() {
            return Err(format!(
                "{} not found: build with perfbench/run.sh, which puts vpcec and perfbench in one target directory",
                vpcec.display()
            ));
        }
        let cwd = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
        let base = cwd.join("perfbench");
        if !base.join("expected").is_dir() {
            return Err(format!(
                "{} has no perfbench/expected: run from the repository root",
                cwd.display()
            ));
        }
        Ok(Env {
            vpcec,
            expected: base.join("expected"),
            out: base.join("out"),
        })
    }

    /// A directory of this run's own under `out/tmp/`, removed when the
    /// returned guard drops.
    pub fn run_dir(&self, tag: &str) -> Result<RunDir, String> {
        let path = self
            .out
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        // A crashed earlier process with a recycled pid may have left one.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(RunDir { path, next: 0 })
    }
}

/// A run's scratch directory; every set-up and every sample gets a
/// fresh sub-directory of it, so no invocation sees another's files.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
    next: usize,
}

impl RunDir {
    /// A new empty sub-directory holding `inputs`' files.
    pub fn fresh(&mut self, inputs: &Inputs) -> Result<PathBuf, String> {
        let dir = self.path.join(format!("{:03}", self.next));
        self.next += 1;
        std::fs::create_dir(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for (name, contents) in &inputs.files {
            write(&dir.join(name), contents)?;
        }
        Ok(dir)
    }

    /// Delete a finished sub-directory (a sample's journal and reports
    /// are dead weight once checked).
    pub fn discard(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

pub fn write(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
