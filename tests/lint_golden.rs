//! Golden lint diagnostics over the `examples/fortran` fixtures: the
//! machine-readable JSON that `vpcec --lint --lint-json` emits is
//! diffed byte-for-byte against checked-in expectations, so any drift
//! in codes, provenance, or formatting is a deliberate, reviewed
//! change. Regenerate with `UPDATE_GOLDEN=1 cargo test -q -p vpce
//! --test lint_golden`.

use vpce::cli::{parse_args, run};

fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// Lint one fixture and compare its JSON against the golden file.
fn golden_case(fixture: &str, extra_args: &str, golden: &str, expect_exit: i32) -> String {
    let source = std::fs::read_to_string(repo_path(&format!("examples/fortran/{fixture}")))
        .expect("fixture exists");
    let argv: Vec<String> = format!("{fixture} --lint --lint-json out.json {extra_args}")
        .split_whitespace()
        .map(String::from)
        .collect();
    let args = parse_args(&argv).expect("fixture args parse");
    let out = run(&source, &args).expect("fixture compiles");
    assert_eq!(
        out.exit, expect_exit,
        "{fixture}: unexpected lint exit\n{}",
        out.text
    );
    let json = out.lint_json.expect("--lint-json produces a payload");

    let golden_path = repo_path(&format!("tests/golden/{golden}"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &json).expect("write golden");
        return json;
    }
    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {golden_path}: {e}"));
    assert_eq!(
        json, expected,
        "{fixture}: lint JSON drifted from {golden}; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
    json
}

#[test]
fn mm_is_clean_at_fine_grain() {
    let json = golden_case("mm.f", "--grain fine", "mm_lint.json", 0);
    assert!(json.contains("\"errors\": 0"));
}

#[test]
fn saxpy_is_clean_at_fine_grain() {
    let json = golden_case("saxpy.f", "--grain fine", "saxpy_lint.json", 0);
    assert!(json.contains("\"diagnostics\": []"));
}

#[test]
fn racy_fixture_is_flagged_with_stable_code() {
    let json = golden_case(
        "racy.f",
        "--grain coarse --schedule cyclic --unsafe-collect",
        "racy_lint.json",
        2,
    );
    assert!(
        json.contains("\"VPCE001\""),
        "racy fixture must carry the stable PUT/PUT code: {json}"
    );
}

/// A read through aliasing subscripts, `B(I,J,K) = A(I+J+K)`: rank
/// 1's scatter of `A` at fine grain is N² column pieces of one band,
/// nearly all overlapping one another. The bytes, human and JSON, are
/// the ones the lint printed while it scanned every pair of wire
/// messages (at N = 40, 312 285 pairs deduplicated to this one
/// warning); it now walks the op's sorted messages once.
#[test]
fn aliasing_read_warns_once_with_the_message_by_message_bytes() {
    let args = "--nodes 2 --param N=20 --grain fine";
    let json = golden_case("alias.f", args, "alias_lint.json", 1);
    assert!(json.contains("\"VPCE101\""));
    let (exit, text) = lint(&format!("alias.f --lint {args}"));
    assert_eq!(exit, 1);
    assert_eq!(
        text,
        "warning[VPCE101] window A shard 1 rank 0 (loop at line 11) [scatter/scatter]: \
         epoch 0: PUT by rank 0 overlaps PUT by rank 0 on shard 1 with no intervening fence\n\
         lint: ALIAS: 0 error(s), 1 warning(s)\n"
    );
}

/// Lint a fixture without a golden: exit code and human report.
fn lint(argv: &str) -> (i32, String) {
    let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
    let source = std::fs::read_to_string(repo_path(&format!("examples/fortran/{}", argv[0])))
        .expect("fixture exists");
    let out = run(&source, &parse_args(&argv).unwrap()).unwrap();
    (out.exit, out.text)
}

#[test]
fn racy_fixture_is_clean_with_safety_check_active() {
    // Without --unsafe-collect the 5.6 overlap check forces fine-grain
    // collection and the very same program lints clean.
    let (exit, text) = lint("racy.f --lint --grain coarse --schedule cyclic");
    assert_eq!(exit, 0, "{text}");
}

/// The checker re-proves the planner's elisions under the planner's
/// budget (`lmad::COVER_LIMIT`). With a smaller one of its own it
/// called every slave band past 2¹⁶ elements stale: 15 false VPCE006
/// on Table 1's machine and size, 5 on two nodes at N = 512.
#[test]
fn mm_is_clean_where_a_band_passes_two_to_the_sixteenth() {
    for argv in [
        "mm.f --nodes 4 --param N=1024 --grain fine --lint",
        "mm.f --nodes 2 --param N=512 --lint",
    ] {
        let (exit, text) = lint(argv);
        assert_eq!(exit, 0, "{argv}\n{text}");
    }
}

/// `examples/fortran/swim.f` is `vpce_workloads::swim::SOURCE` under a
/// two-line header comment — the benchmark's `swim_lint` workload as a
/// file a shell can name — and lints to the same report: 0 errors, 73
/// VPCE101 warnings. (The constant opens with one blank line; it is
/// padded by one more so both texts number their lines alike.)
#[test]
fn swim_file_is_the_workload_constant() {
    let file =
        std::fs::read_to_string(repo_path("examples/fortran/swim.f")).expect("fixture exists");
    let constant = vpce_workloads::swim::SOURCE;
    let lines: Vec<&str> = file.lines().collect();
    let (header, body) = lines.split_at(2);
    assert!(header.iter().all(|l| l.starts_with("C ")), "{header:?}");
    assert_eq!(body, constant.lines().skip(1).collect::<Vec<_>>());

    let argv: Vec<String> = "swim.f --nodes 16 --param N=400 --grain fine --lint"
        .split_whitespace()
        .map(String::from)
        .collect();
    let args = parse_args(&argv).unwrap();
    let of_file = run(&file, &args).unwrap();
    let of_constant = run(&format!("\n{constant}"), &args).unwrap();
    assert_eq!(of_file.exit, 1, "{}", of_file.text);
    assert_eq!(of_file.text.matches("warning[VPCE101]").count(), 73);
    assert!(of_file.text.ends_with("lint: SWIM: 0 error(s), 73 warning(s)\n"), "{}", of_file.text);
    assert_eq!(of_file.text, of_constant.text);
    assert_eq!(of_file.exit, of_constant.exit);
}
