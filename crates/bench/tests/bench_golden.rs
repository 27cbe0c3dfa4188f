//! Every table of the paper's evidence, held byte-for-byte.
//!
//! Each entry of `vpce_bench::tables::TABLES` commits one `BENCH_*.json`
//! at the repository root. Every number in them is virtual time or a
//! count — a pure function of the source tree — so a change to Table 1,
//! Table 2, the hardware claims, the ablations, the scaling sweep, the
//! fault matrix, the scheduler grid, the recovery sweep, the service
//! benchmark, the machine zoo or the transport crossover is a readable
//! diff in review. Each test runs its table exactly as `vpce-bench
//! <table>` does, requires that the run broke no invariant, and
//! compares the document with the committed file. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --offline -p vpce-bench --test
//! bench_golden`.

use std::ffi::OsString;
use std::process::Command;

use vpce_bench::tables::{self, TABLES};

/// The first differing hunk, unified-diff style (common prefix and
/// suffix lines trimmed).
fn first_hunk(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let prefix = want.iter().zip(&got).take_while(|(a, b)| a == b).count();
    let suffix = want[prefix..]
        .iter()
        .rev()
        .zip(got[prefix..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    let mut hunk = format!("@@ line {} @@\n", prefix + 1);
    for line in &want[prefix..want.len() - suffix] {
        hunk.push_str(&format!("-{line}\n"));
    }
    for line in &got[prefix..got.len() - suffix] {
        hunk.push_str(&format!("+{line}\n"));
    }
    hunk
}

fn check(file: &str, doc: &str) {
    assert!(
        !doc.contains("wall"),
        "{file} names a host time; BENCH_*.json holds virtual time only"
    );
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, doc).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {file}: {e}; run with UPDATE_GOLDEN=1"));
    assert!(
        doc == want,
        "{file} drifted from the committed golden:\n--- {file}\n+++ computed\n{}\
         if intentional, regenerate with\n  \
         UPDATE_GOLDEN=1 cargo test --offline -p vpce-bench --test bench_golden",
        first_hunk(&want, doc)
    );
}

/// Run the table called `name`, require a healthy run, and hold its
/// document against the committed golden.
fn golden(name: &str) {
    let table = tables::find(name).unwrap_or_else(|| panic!("no table `{name}`"));
    let (doc, failures) = (table.run)();
    assert!(
        failures.is_empty(),
        "{name} broke its invariants:\n{}",
        failures.join("\n")
    );
    check(table.golden, &doc);
}

#[test]
fn table1_matches_golden() {
    golden("table1");
}

#[test]
fn table2_matches_golden() {
    golden("table2");
}

#[test]
fn hwclaims_matches_golden() {
    golden("hwclaims");
}

#[test]
fn ablation_matches_golden() {
    golden("ablation");
}

#[test]
fn scaling_matches_golden() {
    golden("scaling");
}

#[test]
fn chaos_matches_golden() {
    golden("chaos");
}

#[test]
fn sched_matches_golden() {
    golden("sched");
}

#[test]
fn serve_matches_golden() {
    golden("serve");
}

#[test]
fn recovery_matches_golden() {
    golden("recover");
}

#[test]
fn machine_matches_golden() {
    golden("machine");
}

#[test]
fn transport_matches_golden() {
    golden("transport");
}

#[test]
fn every_golden_belongs_to_one_table() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let mut on_disk: Vec<String> = std::fs::read_dir(&root)
        .expect("read the repository root")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    on_disk.sort();
    let mut registered: Vec<String> = TABLES.iter().map(|t| t.golden.to_string()).collect();
    registered.sort();
    registered.dedup();
    assert_eq!(registered.len(), TABLES.len(), "two tables share a golden");
    assert_eq!(on_disk, registered);
    let mut names: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), TABLES.len(), "two tables share a name");
}

#[test]
fn a_bad_command_line_is_a_usage_line() {
    let usage = format!(
        "usage: vpce-bench <table>\ntables: {}\n",
        TABLES.iter().map(|t| t.name).collect::<Vec<_>>().join(" ")
    );
    let mut bad: Vec<Vec<OsString>> = [
        &[][..],
        &["bogus"],
        &["table1", "extra"],
        &["hwclaims", "--bogus"],
        &["chaos", "--json"],
        &["--json", "x.json"],
    ]
    .iter()
    .map(|args| args.iter().map(OsString::from).collect())
    .collect();
    #[cfg(unix)]
    bad.push(vec![std::os::unix::ffi::OsStringExt::from_vec(vec![0xff])]);
    for args in bad {
        let out = Command::new(env!("CARGO_BIN_EXE_vpce-bench"))
            .args(&args)
            .output()
            .expect("spawn vpce-bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), usage, "{args:?}");
    }
}

#[test]
fn a_drifted_document_reports_a_readable_hunk() {
    let hunk = first_hunk(
        "{\n  \"a\": 1,\n  \"b\": 2\n}\n",
        "{\n  \"a\": 1,\n  \"b\": 3\n}\n",
    );
    assert_eq!(hunk, "@@ line 3 @@\n-  \"b\": 2\n+  \"b\": 3\n");
}
