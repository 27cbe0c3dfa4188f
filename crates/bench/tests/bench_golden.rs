//! The eight committed `BENCH_*.json` documents, held byte-for-byte.
//!
//! Every number in them is virtual time or a count — a pure function
//! of the source tree — so a change to Table 1, Table 2, the fault
//! matrix, the scheduler grid, the recovery sweep, the service
//! benchmark, the machine zoo or the transport crossover is a readable
//! diff in review. Each test computes the document its binary's
//! `--json` writes (same `json_doc`, same default parameters) and
//! compares it with the file at the repository root. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --offline -p vpce-bench --test
//! bench_golden`.

use cluster_sim::ClusterConfig;
use vpce_bench::{chaos, machine, recover, sched, serve, table1, table2, transport};

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

#[test]
fn table1_matches_golden() {
    let nominal = table1::sweep(ClusterConfig::paper_n);
    let prototype = table1::sweep(ClusterConfig::prototype_n);
    check("BENCH_table1.json", &table1::json_doc(&nominal, &prototype));
}

#[test]
fn table2_matches_golden() {
    let cells = table2::sweep(&ClusterConfig::paper_4node());
    check("BENCH_table2.json", &table2::json_doc(&cells));
}

#[test]
fn chaos_matches_golden() {
    let cells = chaos::sweep(&ClusterConfig::paper_4node(), chaos::SEEDS);
    check("BENCH_chaos.json", &chaos::json_doc(&cells));
}

#[test]
fn sched_matches_golden() {
    let cells = sched::sweep(sched::SEED, sched::JOBS_PER_STORM);
    check("BENCH_sched.json", &sched::json_doc(&cells));
}

#[test]
fn recovery_matches_golden() {
    check(
        "BENCH_recovery.json",
        &recover::json_doc(&recover::run(recover::SEEDS)),
    );
}

#[test]
fn serve_matches_golden() {
    let bench = serve::run(serve::JOBS, serve::KILL_POINTS);
    check("BENCH_serve.json", &serve::json_doc(&bench));
}

#[test]
fn machine_matches_golden() {
    let points = machine::sweep(machine::MACHINES, machine::NODES);
    check("BENCH_machine.json", &machine::json_doc(&points));
}

#[test]
fn transport_matches_golden() {
    let cells = transport::sweep(&ClusterConfig::paper_n(4), transport::EPOCHS);
    check("BENCH_transport.json", &transport::json_doc(&cells));
}

#[test]
fn a_drifted_document_reports_a_readable_hunk() {
    let hunk = first_hunk(
        "{\n  \"a\": 1,\n  \"b\": 2\n}\n",
        "{\n  \"a\": 1,\n  \"b\": 3\n}\n",
    );
    assert_eq!(hunk, "@@ line 3 @@\n-  \"b\": 2\n+  \"b\": 3\n");
}
