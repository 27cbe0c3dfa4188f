//! The correctness gate behind `fail_share`. An operation — one
//! `vpcec` invocation — fails on a wrong exit code, on report text
//! whose digest differs from the one pinned under `perfbench/expected/`
//! (the regression reference for the bit-identity contract), or on a
//! hand-written expectation the code under test had no part in.

use std::path::Path;

use crate::workloads::{Expect, Inputs, Workload};

/// FNV-1a, 64 bit: a fixed public function, so a digest in a committed
/// file means the same bytes on every machine.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one invocation's stdout must be, byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    pub exit: i32,
    pub bytes: usize,
    pub digest: u64,
}

impl Pin {
    pub fn of(exit: i32, stdout: &str) -> Pin {
        Pin {
            exit,
            bytes: stdout.len(),
            digest: fnv1a64(stdout.as_bytes()),
        }
    }
}

/// The pinned reports of one workload's command sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pinned {
    /// The seed the reports were blessed at; `None` when the workload's
    /// inputs do not depend on the seed.
    pub seed: Option<u64>,
    pub pins: Vec<Pin>,
}

impl Pinned {
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "# {workload}: exit code, byte length and FNV-1a-64 of each invocation's stdout,\n\
             # in sequence order. Written by `perfbench bless`; never edit by hand.\n"
        );
        out.push_str(&match self.seed {
            Some(s) => format!("seed {s}\n"),
            None => "seed any\n".to_string(),
        });
        for p in &self.pins {
            out.push_str(&format!(
                "exit={} bytes={} fnv1a64={:016x}\n",
                p.exit, p.bytes, p.digest
            ));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Pinned, String> {
        let mut seed = None;
        let mut seen_seed = false;
        let mut pins = Vec::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            if let Some(s) = line.strip_prefix("seed ") {
                seen_seed = true;
                seed = match s {
                    "any" => None,
                    n => Some(n.parse().map_err(|_| format!("bad seed line `{line}`"))?),
                };
                continue;
            }
            let field = |key: &str| {
                line.split(' ')
                    .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
                    .ok_or_else(|| format!("no `{key}=` in `{line}`"))
            };
            pins.push(Pin {
                exit: field("exit")?
                    .parse()
                    .map_err(|_| format!("bad exit in `{line}`"))?,
                bytes: field("bytes")?
                    .parse()
                    .map_err(|_| format!("bad bytes in `{line}`"))?,
                digest: u64::from_str_radix(field("fnv1a64")?, 16)
                    .map_err(|_| format!("bad digest in `{line}`"))?,
            });
        }
        if !seen_seed || pins.is_empty() {
            return Err("no seed line or no pinned invocation".into());
        }
        Ok(Pinned { seed, pins })
    }

    /// Load `<dir>/<workload>.digest`. A missing reference is an error:
    /// the benchmark does not run without its ruler.
    pub fn load(dir: &Path, workload: &Workload) -> Result<Pinned, String> {
        let path = dir.join(format!("{}.digest", workload.name));
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "cannot read {} ({e}); run `perfbench/run.sh bless`",
                path.display()
            )
        })?;
        Pinned::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The pins to hold a run at `seed` against, if they apply to it.
    pub fn for_seed(&self, seed: u64) -> Option<&[Pin]> {
        (self.seed.is_none() || self.seed == Some(seed)).then_some(&self.pins[..])
    }
}

/// `(errors, warnings)` from the last line of a lint report.
fn lint_totals(stdout: &str) -> Option<(usize, usize)> {
    let last = stdout.lines().last()?.strip_prefix("lint: ")?;
    if last.ends_with(": clean (no RMA conflicts)") {
        return Some((0, 0));
    }
    let counts = last.split_once(": ")?.1;
    let (errors, rest) = counts.split_once(" error(s), ")?;
    let warnings = rest.strip_suffix(" warning(s)")?;
    Some((errors.parse().ok()?, warnings.parse().ok()?))
}

/// `(submitted, done, failed, rejected)` from a batch report's `jobs:` line.
fn job_totals(stdout: &str) -> Option<[usize; 4]> {
    let line = stdout.lines().find_map(|l| l.strip_prefix("  jobs: "))?;
    let mut fields = line.split(" | ");
    let mut next = |suffix: &str| fields.next()?.strip_suffix(suffix)?.parse::<usize>().ok();
    Some([
        next(" submitted")?,
        next(" done")?,
        next(" failed")?,
        next(" rejected")?,
    ])
}

/// A serve report without its `vpced: recovered …` line.
fn without_recovery_line(stdout: &str) -> String {
    stdout
        .split_inclusive('\n')
        .filter(|l| !l.starts_with("vpced: recovered "))
        .collect()
}

/// Why each invocation of one executed sequence failed (an empty list
/// per invocation that passed). `outputs` are `(exit, stdout)` in
/// sequence order; `pins` are the pinned reports when they apply.
pub fn verify(inputs: &Inputs, outputs: &[(i32, &str)], pins: Option<&[Pin]>) -> Vec<Vec<String>> {
    assert_eq!(
        inputs.invocations.len(),
        outputs.len(),
        "one output per invocation"
    );
    let mut reasons: Vec<Vec<String>> = vec![Vec::new(); outputs.len()];
    for (i, (inv, &(exit, stdout))) in inputs.invocations.iter().zip(outputs).enumerate() {
        let why = &mut reasons[i];
        if exit != inv.exit {
            why.push(format!("exit {exit}, expected {}", inv.exit));
        }
        match inv.expect {
            Expect::Nothing => {}
            Expect::IdenticalToSequential => {
                if !stdout.contains("\n  results identical to sequential execution: true\n") {
                    why.push("no `results identical to sequential execution: true` line".into());
                }
            }
            Expect::Lint { errors, warnings } => {
                if lint_totals(stdout) != Some((errors, warnings)) {
                    why.push(format!(
                        "lint totals {:?}, expected {errors} error(s) and {warnings} warning(s)",
                        lint_totals(stdout)
                    ));
                }
            }
            Expect::AllJobsDone { jobs } => {
                if job_totals(stdout) != Some([jobs, jobs, 0, 0]) {
                    why.push(format!(
                        "job totals {:?}, expected {jobs} done of {jobs}",
                        job_totals(stdout)
                    ));
                }
            }
        }
        if let Some(pins) = pins {
            match pins.get(i) {
                Some(pin) if *pin == Pin::of(exit, stdout) => {}
                Some(pin) => why.push(format!(
                    "report differs from the pinned digest ({} bytes, {:016x}; pinned {} bytes, {:016x})",
                    stdout.len(),
                    fnv1a64(stdout.as_bytes()),
                    pin.bytes,
                    pin.digest
                )),
                None => why.push("no pinned digest for this invocation".into()),
            }
        }
    }
    // The recovery contract: restarting on the sealed journal prints
    // the first incarnation's report again, after one recovery line.
    let serves: Vec<usize> = (0..outputs.len())
        .filter(|&i| {
            inputs.invocations[i]
                .argv
                .first()
                .is_some_and(|a| a == "--serve")
        })
        .collect();
    if let [fresh, recovered] = serves[..] {
        let (first, second) = (outputs[fresh].1, outputs[recovered].1);
        if !second.starts_with("vpced: recovered ") || without_recovery_line(second) != first {
            reasons[recovered].push(
                "recovered report is not the first serve report plus one recovery line".into(),
            );
        }
    }
    reasons
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, STORM_JOBS};

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn pinned_files_round_trip_and_apply_by_seed() {
        let pinned = Pinned {
            seed: Some(1),
            pins: vec![Pin::of(0, "report\n"), Pin::of(1, "")],
        };
        let text = pinned.render("job_storm");
        assert_eq!(Pinned::parse(&text).unwrap(), pinned);
        assert!(pinned.for_seed(1).is_some() && pinned.for_seed(2).is_none());
        let any = Pinned {
            seed: None,
            pins: vec![Pin::of(0, "x")],
        };
        assert_eq!(Pinned::parse(&any.render("mm_full")).unwrap(), any);
        assert!(any.for_seed(5).is_some());
        assert!(Pinned::parse("# nothing\n").is_err());
        assert!(Pinned::parse("seed any\nexit=0 bytes=x fnv1a64=00\n").is_err());
    }

    #[test]
    fn lint_and_job_totals_read_the_report_lines() {
        assert_eq!(
            lint_totals("lint: MM: clean (no RMA conflicts)\n"),
            Some((0, 0))
        );
        assert_eq!(
            lint_totals("warning[VPCE101] …\nlint: SWIM: 0 error(s), 73 warning(s)\n"),
            Some((0, 73))
        );
        assert_eq!(lint_totals("MM: 4 ranks\n"), None);
        let report = "batch: 16 nodes\n  jobs: 81 submitted | 81 done | 0 failed | 0 rejected | 0 requeues\n";
        assert_eq!(job_totals(report), Some([81, 81, 0, 0]));
        assert_eq!(job_totals("nothing"), None);
    }

    #[test]
    fn verify_flags_each_kind_of_failure() {
        let lint = find("swim_lint").unwrap().inputs(1);
        let good = "lint: SWIM: 0 error(s), 73 warning(s)\n";
        let pins = [Pin::of(1, good)];
        assert!(verify(&lint, &[(1, good)], Some(&pins))[0].is_empty());
        // Wrong exit code, wrong count, changed bytes: three reasons.
        let bad = "lint: SWIM: 0 error(s), 72 warning(s)\n";
        assert_eq!(verify(&lint, &[(0, bad)], Some(&pins))[0].len(), 3);
        // Without pins only the independent checks apply.
        assert_eq!(verify(&lint, &[(1, bad)], None)[0].len(), 1);

        let full = find("mm_full").unwrap().inputs(1);
        let ok = "MM: 4 ranks\n  results identical to sequential execution: true\n";
        assert!(verify(&full, &[(0, ok)], None)[0].is_empty());
        let wrong = "MM: 4 ranks\n  results identical to sequential execution: false\n";
        assert_eq!(verify(&full, &[(0, wrong)], None)[0].len(), 1);
    }

    #[test]
    fn verify_holds_the_recovered_report_to_the_first_one() {
        let storm = find("job_storm").unwrap().inputs(1);
        let report = format!(
            "batch: 16 nodes\n  jobs: {STORM_JOBS} submitted | {STORM_JOBS} done | 0 failed | 0 rejected | 0 requeues\n"
        );
        let recovered = format!(
            "vpced: recovered 85 inputs, 243 derived ops from the journal (recovery #1)\n{report}"
        );
        let outputs = [
            (0, report.as_str()),
            (0, report.as_str()),
            (0, recovered.as_str()),
        ];
        assert!(verify(&storm, &outputs, None).iter().all(Vec::is_empty));
        // A recovered report that lost a line fails the third operation only.
        let torn = recovered.replace("batch: 16 nodes\n", "");
        let outputs = [
            (0, report.as_str()),
            (0, report.as_str()),
            (0, torn.as_str()),
        ];
        let reasons = verify(&storm, &outputs, None);
        assert!(reasons[0].is_empty() && reasons[1].is_empty() && reasons[2].len() == 1);
        // A short count fails the invocation that printed it.
        let short = report.replace(&format!("{STORM_JOBS} done"), "80 done");
        let outputs = [
            (0, short.as_str()),
            (0, report.as_str()),
            (0, recovered.as_str()),
        ];
        let reasons = verify(&storm, &outputs, None);
        assert!(reasons[0].len() == 1 && reasons[1].is_empty() && reasons[2].is_empty());
    }
}
