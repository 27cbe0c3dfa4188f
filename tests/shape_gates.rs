//! The source-shape gates: each mechanism is written once, and one test per gate holds that on
//! the tree. Every gate reads through one lexer pass, [`File::new`]: comments (line, doc, nested
//! block) and `#[cfg(test)]` items are blanked, and a file its parent declares
//! `#[cfg(test)] mod x;` reads empty. `text` keeps string and char literals, `names` blanks their
//! contents; a file that is not Rust reads raw. Each gate finds nothing on the tree and rejects
//! every planted snippet.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// A file's non-test code, and the files it declares `#[cfg(test)] mod x;`. Blanking writes spaces
/// and keeps newlines, so every offset and line number is the raw file's.
struct File {
    path: String,
    /// Comments and `#[cfg(test)]` items blanked.
    text: String,
    /// `text` with the contents of string and char literals blanked too.
    names: String,
    test_files: Vec<String>,
}

impl File {
    fn new(path: &str, raw: &str) -> File {
        let mut file =
            File { path: path.into(), text: raw.into(), names: raw.into(), test_files: vec![] };
        if !path.ends_with(".rs") {
            return file;
        }
        let (mut text, mut names) = strip_comments(raw);
        let mut from = 0;
        while let Some(at) = find(&names[from..], b"#[cfg(test)]").map(|n| from + n) {
            let end = item_end(&names, at);
            let item = String::from_utf8_lossy(&names[at..end]);
            let declared = item.trim_end().strip_suffix(';').and_then(|s| s.rsplit_once("mod "));
            if let Some((_, module)) = declared {
                let dir = ["/lib", "/main", "/mod"]
                    .iter()
                    .fold(path.trim_end_matches(".rs"), |p, stem| p.trim_end_matches(stem));
                file.test_files.push(format!("{dir}/{}.rs", module.trim()));
            }
            blank(&mut text, at..end);
            blank(&mut names, at..end);
            from = end;
        }
        file.text = String::from_utf8(text).expect("blanking keeps UTF-8");
        file.names = String::from_utf8(names).expect("blanking keeps UTF-8");
        file
    }

    /// This file as a module its parent declares `#[cfg(test)]`: no non-test code.
    fn test_module(self) -> File {
        File { text: String::new(), names: String::new(), ..self }
    }
}

/// A byte of an identifier or keyword.
fn is_word(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Offset of the first `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Spaces over `v[r]`, newlines kept.
fn blank(v: &mut [u8], r: Range<usize>) {
    for c in &mut v[r] {
        if *c != b'\n' {
            *c = b' ';
        }
    }
}

/// `raw` with its comments blanked, and a copy with the contents of its string and char literals
/// blanked too.
fn strip_comments(raw: &str) -> (Vec<u8>, Vec<u8>) {
    let b = raw.as_bytes();
    let mut text = b.to_vec();
    let mut names = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        if b[i..].starts_with(b"//") || b[i..].starts_with(b"/*") {
            let end = comment_end(b, i);
            blank(&mut text, i..end);
            blank(&mut names, i..end);
            i = end;
        } else {
            let (contents, next) = token(raw, i);
            blank(&mut names, contents);
            i = next;
        }
    }
    (text, names)
}

/// End of the line comment or the (nested) block comment at `i`.
fn comment_end(b: &[u8], mut i: usize) -> usize {
    if b[i + 1] == b'/' {
        return find(&b[i..], b"\n").map_or(b.len(), |n| i + n);
    }
    let mut depth = 0;
    while i < b.len() {
        if b[i..].starts_with(b"/*") {
            depth += 1;
            i += 2;
        } else if b[i..].starts_with(b"*/") {
            depth -= 1;
            i += 2;
            if depth == 0 {
                return i;
            }
        } else {
            i += 1;
        }
    }
    i
}

/// The token at `i`: the contents of the string or char literal there (empty for any other token)
/// and where the next token starts. A word is read whole, so `r#"…"#` is one raw string, and a
/// lifetime or label (`'a`, `'outer:`) is not a char literal.
fn token(raw: &str, i: usize) -> (Range<usize>, usize) {
    let b = raw.as_bytes();
    match b[i] {
        c if is_word(c) => {
            let j = i + b[i..].iter().position(|&c| !is_word(c)).unwrap_or(b.len() - i);
            let hashes = b[j..].iter().take_while(|&&c| c == b'#').count();
            let prefix = matches!(&b[i..j], b"r" | b"br" | b"cr");
            if !prefix || b.get(j + hashes) != Some(&b'"') {
                return (j..j, j);
            }
            let open = j + hashes + 1;
            let close = [&b"\""[..], &b[j..j + hashes]].concat();
            let end = find(&b[open..], &close).map_or(b.len(), |n| open + n);
            (open..end, end + close.len())
        }
        b'"' => {
            let mut k = i + 1;
            while k < b.len() && b[k] != b'"' {
                k += if b[k] == b'\\' { 2 } else { 1 };
            }
            (i + 1..k.min(b.len()), k + 1)
        }
        b'\'' => {
            let len = match b.get(i + 1) {
                Some(b'\\') => {
                    let rest = b.get(i + 3..).unwrap_or_default();
                    2 + rest.iter().position(|&c| c == b'\'').unwrap_or(0)
                }
                Some(_) => raw[i + 1..].chars().next().map_or(1, char::len_utf8),
                None => 0,
            };
            if b.get(i + 1 + len) == Some(&b'\'') {
                (i + 1..i + 1 + len, i + 2 + len)
            } else {
                (i..i, i + 1)
            }
        }
        _ => (i..i, i + 1),
    }
}

/// End of the `#[cfg(test)]` item at `i`: past the `;` or the `}` that ends it, or at the closer
/// of the block around it. A `let` reads on past its braces, and so does an `if … else`.
fn item_end(b: &[u8], mut i: usize) -> usize {
    let mut depth = 0;
    let mut first_word = None;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
                let rest = b[i + 1..].trim_ascii_start();
                let is_else =
                    rest.starts_with(b"else") && !rest.get(4).is_some_and(|&c| is_word(c));
                let reads_on = first_word == Some(&b"let"[..]) || is_else;
                if depth == 0 && b[i] == b'}' && !reads_on {
                    return i + 1;
                }
            }
            b';' if depth == 0 => return i + 1,
            c if depth == 0 && first_word.is_none() && is_word(c) => {
                first_word = b[i..].split(|&c| !is_word(c)).next();
            }
            _ => {}
        }
        i += 1;
    }
    i
}

type Tree = Vec<Arc<File>>;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every text file at the repository's root and under the directories the gates read (`target`
/// aside), read once.
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let read = ["crates", "tests", "examples", "perfbench", ".github"];
        let mut raw = vec![];
        let mut dirs = vec![root()];
        while let Some(dir) = dirs.pop() {
            for entry in fs::read_dir(&dir).expect("a directory") {
                let path = entry.expect("an entry").path();
                let name = path.file_name().unwrap_or_default().to_string_lossy();
                if path.is_dir() {
                    if name != "target" && (dir != root() || read.contains(&&*name)) {
                        dirs.push(path);
                    }
                } else if let Ok(s) = fs::read_to_string(&path) {
                    let rel =
                        path.strip_prefix(root()).unwrap().to_string_lossy().replace('\\', "/");
                    raw.push((rel, s));
                }
            }
        }
        raw.sort();
        let files: Vec<File> = raw.iter().map(|(path, s)| File::new(path, s)).collect();
        let tests: Vec<String> = files.iter().flat_map(|f| f.test_files.clone()).collect();
        let module = |f: File| if tests.contains(&f.path) { f.test_module() } else { f };
        files.into_iter().map(module).map(Arc::new).collect()
    })
}

/// The tree with `snippet` inserted before the first `at` in `path` (at the end if `at` is empty;
/// a new file if there is none).
fn plant(path: &str, at: &str, snippet: &str) -> Tree {
    let raw = fs::read_to_string(root().join(path)).unwrap_or_default();
    let pos = match at {
        "" => raw.len(),
        _ => raw.find(at).unwrap_or_else(|| panic!("no `{at}` in {path}")),
    };
    let f = File::new(path, &format!("{}{snippet}{}", &raw[..pos], &raw[pos..]));
    let mut t = tree().clone();
    let declared = t.iter().any(|g| g.test_files.iter().any(|p| p == path));
    t.retain(|g| g.path != path);
    t.push(Arc::new(if declared { f.test_module() } else { f }));
    t.sort_by(|a, b| a.path.cmp(&b.path));
    t
}

/// `gate` finds nothing on the tree, and something after each `(path, at, snippet)` plant.
fn holds(gate: impl Fn(&Tree) -> Vec<String>, plants: &[(&str, &str, &str)]) {
    assert_eq!(gate(tree()), Vec::<String>::new(), "the tree fails this gate");
    for &(path, at, snippet) in plants {
        let found = gate(&plant(path, at, snippet));
        assert_ne!(found, Vec::<String>::new(), "{path}: `{snippet}` before `{at}` passes");
    }
}

type View = fn(&File) -> &str;
const TEXT: View = |f| &f.text;
const NAMES: View = |f| &f.names;

/// `path:line: text` of each line of `view` that `pat` matches, in the files whose path `scope`
/// takes.
fn lines(
    t: &Tree,
    scope: impl Fn(&str) -> bool,
    view: View,
    pat: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut found = vec![];
    for f in t.iter().filter(|f| scope(&f.path)) {
        for (n, line) in view(f).lines().enumerate() {
            if pat(line) {
                found.push(format!("{}:{}: {}", f.path, n + 1, line.trim()));
            }
        }
    }
    found
}

/// Is `path` under one of `dirs`?
fn under(path: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| path.starts_with(d))
}

/// Is `path` in a crate's `src` tree?
fn in_src(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

/// Does `line` hold one of the `|`-separated words? A `\b` at an end asks for a word boundary.
fn hit(line: &str, pat: &str) -> bool {
    let w = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    pat.split('|').any(|alt| {
        let (left, alt) = alt.strip_prefix(r"\b").map_or((false, alt), |a| (true, a));
        let (right, alt) = alt.strip_suffix(r"\b").map_or((false, alt), |a| (true, a));
        line.match_indices(alt).any(|(i, _)| {
            let before = w(line[..i].chars().next_back());
            let after = w(line[i + alt.len()..].chars().next());
            !(left && before || right && after)
        })
    })
}

fn names<'t>(t: &'t Tree, path: &str) -> &'t str {
    t.iter().find(|f| f.path == path).map_or("", |f| &f.names)
}

/// The byte range of the item at the first `head` in `code`, through the brace that closes it.
fn item(code: &str, head: &str) -> Option<Range<usize>> {
    let at = code.find(head)?;
    let open = at + code[at..].find('{')?;
    let mut depth = 0;
    for (i, c) in code.bytes().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(at..i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// The item at `head` in `path`'s non-test code, literal contents blanked.
fn body<'t>(t: &'t Tree, path: &str, head: &str) -> Option<&'t str> {
    let code = names(t, path);
    item(code, head).map(|r| &code[r])
}

/// mpi2 blocks in one place (`blocking.rs`): no timed wait, wait-for graph, stall knob, owned lock
/// guard or `unsafe`, and `Condvar` only there and in `sync.rs`. CI runs `deadlock_detect` under a
/// process watchdog.
#[test]
fn one_place_a_rank_can_block() {
    holds(
        |t| {
            let retired = "wait_timeout|WaitGraph|with_stall_check|DEFAULT_STALL_CHECK|lock_arc|ArcMutexGuard";
            let mut found = lines(t, |p| p.starts_with("crates/"), NAMES, |l| hit(l, retired));
            let mpi2 = |p: &str| p.starts_with("crates/mpi2/src/");
            found.extend(lines(t, mpi2, NAMES, |l| hit(l, r"\bunsafe\b")));
            let condvar: Vec<&str> = t
                .iter()
                .filter(|f| f.path.starts_with("crates/") && f.names.contains("Condvar"))
                .map(|f| f.path.as_str())
                .collect();
            if condvar != ["crates/mpi2/src/blocking.rs", "crates/mpi2/src/sync.rs"] {
                found.push(format!("Condvar in {condvar:?}"));
            }
            found
        },
        &[
            ("crates/mpi2/src/universe.rs", "", "struct G(std::sync::Condvar);"),
            ("crates/mpi2/src/window.rs", "", "unsafe fn f() {}"),
            ("crates/spmd-rt/tests/x.rs", "", "fn f(g: WaitGraph) {}"),
        ],
    );
}

/// Ranks are futures on the workers `spmd_rt::exec::workers` picks: `mpi2/src/workers.rs` alone
/// asks for the core count and makes (scoped) threads, `vpce` never calls `execute_sequential`, no
/// environment variable steers mpi2, spmd-rt or sched, and the thread-per-rank entry is gone. CI
/// runs the one-core suites.
#[test]
fn ranks_are_data_between_waits() {
    holds(
        |t| {
            let core = |p: &str| p.starts_with("crates/core/src/");
            let mut found = lines(t, core, NAMES, |l| l.contains("execute_sequential("));
            let everywhere = |p: &str| under(p, &["crates/", "tests/", "perfbench/"]);
            found.extend(lines(t, everywhere, NAMES, |l| hit(l, "try_run(|try_run_tasks")));
            let steered = |p: &str| {
                under(p, &["crates/mpi2/src/", "crates/spmd-rt/src/", "crates/sched/src/"])
            };
            found.extend(lines(t, steered, NAMES, |l| l.contains("env::var")));
            let one_site = [
                ("thread::scope|thread::spawn|Builder::new", "thread::scope"),
                ("available_parallelism", "available_parallelism"),
            ];
            for (pat, site) in one_site {
                let sites = lines(t, in_src, NAMES, |l| hit(l, pat));
                if sites.len() != 1
                    || !sites[0].starts_with("crates/mpi2/src/workers.rs:")
                    || !sites[0].contains(site)
                {
                    found.push(format!("{pat}: {sites:?}"));
                }
            }
            found
        },
        &[
            ("crates/core/src/cli.rs", "", "fn f(p: &P) { spmd_rt::execute_sequential(p); }"),
            ("crates/sched/src/runner.rs", "", "fn f() { std::thread::spawn(|| ()); }"),
            // Below exec.rs's `#[cfg(test)] fn run_sequential`.
            (
                "crates/spmd-rt/src/exec.rs",
                "fn combine(op: RedOp",
                "fn f() { std::thread::available_parallelism(); }\n",
            ),
            ("tests/cli_bin.rs", "", "fn f(u: U) { u.try_run(1); }"),
            ("crates/sched/src/job.rs", "", "fn f() { std::env::var(\"X\"); }"),
        ],
    );
}

/// A typed failure is a `Result` from where it is detected up to `try_execute`: no panic-payload
/// channel, no panic hook; `catch_unwind` guards one poll in the rank engine and the property
/// harness. The exact gates are the quiet-failure table in `tests/cli_bin.rs` and the engine
/// tests.
#[test]
fn errors_are_values() {
    let gate = |t: &Tree| {
        let payloads = r"fn raise|take_raised|raised_ref|panic_any|\bRaised\b|escalate";
        let mut found = lines(t, in_src, NAMES, |l| hit(l, payloads));
        let guarded = |p: &str| {
            in_src(p) && p != "crates/mpi2/src/universe.rs" && !p.starts_with("crates/testkit/")
        };
        found.extend(lines(t, guarded, NAMES, |l| l.contains("catch_unwind")));
        found
    };
    let lowered = "crates/spmd-rt/src/lowered.rs";
    holds(
        gate,
        &[
            (lowered, "", "struct Raised;"),
            ("crates/spmd-rt/src/exec.rs", "", "fn f() { std::panic::catch_unwind(|| ()); }"),
        ],
    );
    let doc = "/// Raised when nobody will read this executor's results\nfn quiet() {}\n";
    assert_eq!(gate(&plant(lowered, "impl<'p> State<'p> {", doc)), Vec::<String>::new());
}

/// A pending one-sided operation waits in its origin's own queue (`Mpi::queue`): no shared queue,
/// one leader closure per collective (three `blocking.run`), and `try_p2p` books a leg without
/// allocating (`route_into`, the fault schedule borrowed). The exact gates are
/// `tests/fence_memory.rs` and the merge-order property.
#[test]
fn fences_move_no_operations() {
    holds(
        |t| {
            let mpi2 = |p: &str| p.starts_with("crates/mpi2/src/");
            let mut found = lines(t, mpi2, NAMES, |l| l.contains("Mutex<Vec<PendingSeries>>"));
            let top_level =
                |p: &str| p.strip_prefix("crates/mpi2/src/").is_some_and(|f| !f.contains('/'));
            let runs = lines(t, top_level, NAMES, |l| l.contains("blocking.run"));
            if runs.len() != 3 {
                found.push(format!("{} blocking.run sites: {runs:?}", runs.len()));
            }
            let p2p = body(t, "crates/vbus-sim/src/sim.rs", "pub fn try_p2p(").unwrap_or("");
            if !p2p.contains("route_into") || hit(p2p, ".route(|spec().clone()") {
                found.push(format!("try_p2p: {p2p}"));
            }
            found
        },
        &[
            ("crates/mpi2/src/universe.rs", "", "fn f(q: Mutex<Vec<PendingSeries>>) {}"),
            (
                "crates/mpi2/src/rma.rs",
                "impl FenceOrder {",
                "fn f(s: &S) { s.blocking.run(0, 0, |_| ()); }\n",
            ),
            (
                "crates/vbus-sim/src/sim.rs",
                "self.cfg.topology.route_into(",
                "let _ = self.cfg.topology.route(src, dst);\n",
            ),
        ],
    );
}

/// The runtime ledger and the static checker scan an epoch through `lmad::epoch`: no copy of the
/// effect expansion, the classifier or the kernel's arithmetic outside `crates/lmad/src`. The exact
/// gates are the kernel and scanner properties in lmad's oracle and the two differential suites.
#[test]
fn one_epoch_conflict_engine() {
    holds(
        |t| {
            let copies = r"\bfn ext_gcd\b|\bfn div_floor\b|\bfn div_ceil\b|\bfn push_effects\b|\bfn classify\b";
            let outside = |p: &str| in_src(p) && !p.starts_with("crates/lmad/src/");
            lines(t, outside, NAMES, |l| hit(l, copies))
        },
        &[
            // Below a `#[cfg(test)]` accessor, and below a module doc that mentions `#[cfg(test)]`.
            ("crates/mpi2/src/rma.rs", "impl FenceOrder {", "fn classify(a: u8) -> u8 { a }\n"),
            (
                "crates/spmd-rt/src/value.rs",
                "use vpce_faults::VpceError;",
                "fn div_floor<T>(a: T) -> T { a }\n",
            ),
        ],
    );
}

/// `polaris_be::advise` is the one advisor (batch and serve admission call it), with no static
/// estimator beside it; it prices each distinct program once ("same" is the derived `==`, so
/// `CommPlan` carries no grain) with one `try_execute`. The exact gates are the pricing-run count
/// in `crates/core/src/lib.rs` and the batch-door test in `tests/experiment_shapes.rs`.
#[test]
fn one_pricing_run_per_distinct_plan() {
    holds(
        |t| {
            let estimators = r"\bCostParams\b|\bestimate_comm_cost\b|\bGranularityAdvice\b";
            let mut found =
                lines(t, |p| under(p, &["crates/", "tests/"]), NAMES, |l| hit(l, estimators));
            let plan = body(t, "crates/spmd-rt/src/ir.rs", "pub struct CommPlan");
            if plan.is_none_or(|p| p.contains("granularity")) {
                found.push(format!("CommPlan: {plan:?}"));
            }
            let advise =
                body(t, "crates/polaris-be/src/advisor.rs", "pub fn advise(").unwrap_or("");
            if advise.matches("try_execute").count() != 1 {
                found.push(format!("advise: {advise}"));
            }
            let compile = body(t, "crates/sched/src/run.rs", "pub fn compile(").unwrap_or("");
            if !compile.contains("polaris_be::advise(") {
                found.push("sched's compile does not call advise".into());
            }
            found
        },
        &[
            (
                "crates/spmd-rt/src/ir.rs",
                "pub per_rank: Vec<Vec<CommOp>>,",
                "pub granularity: u8,\n",
            ),
            (
                "crates/polaris-be/src/advisor.rs",
                "priced += 1;",
                "spmd_rt::try_execute(&lowered.0, cluster, mode, faults)?;\n",
            ),
            ("tests/pipeline_integration.rs", "", "struct CostParams;"),
            ("crates/sched/src/run.rs", "polaris_be::advise(", "// "),
        ],
    );
}

/// Host time is perfbench's; virtual time is the eleven `BENCH_*.json`, one per table of
/// `vpce_bench::tables::TABLES`, held by `bench_golden`. No second timing harness, no bench
/// targets, no environment knobs for one.
#[test]
fn one_ruler_per_clock() {
    holds(
        |t| {
            let scope = |p: &str| p.starts_with("crates/") || p == "Cargo.toml";
            let harness = |l: &str| {
                hit(l, "VPCE_BENCH_|criterion_group|criterion_main") || l.starts_with("[[bench]]")
            };
            let mut found = lines(t, scope, TEXT, harness);
            let benches = t.iter().filter(|f| f.path.starts_with("crates/bench/benches/"));
            found.extend(benches.map(|f| f.path.clone()));
            let docs =
                t.iter().filter(|f| f.path.starts_with("BENCH_") && f.path.ends_with(".json"));
            if docs.count() != 11 {
                found.push("not eleven BENCH_*.json".into());
            }
            found
        },
        &[
            ("crates/bench/src/lib.rs", "", "criterion_main!(benches);"),
            ("Cargo.toml", "", "[[bench]]\nname = \"x\"\n"),
            ("crates/bench/benches/x.rs", "", "fn main() {}"),
            ("BENCH_extra.json", "", "{}"),
        ],
    );
}

/// `vpce-bench <table>` is the one sweep binary, the table name its whole command line: no
/// per-sweep binaries, no sweep helpers in the simulator, no per-link ledger nothing reads. The
/// exact gate is bench_golden's `a_bad_command_line_is_a_usage_line`.
#[test]
fn one_bench_command() {
    holds(
        |t| {
            let gone = |p: &str| {
                p.starts_with("crates/bench/src/bin/") || p == "crates/vbus-sim/src/sweep.rs"
            };
            let mut found: Vec<String> =
                t.iter().filter(|f| gone(&f.path)).map(|f| f.path.clone()).collect();
            let scope = |p: &str| under(p, &["crates/", "tests/"]);
            found.extend(lines(t, scope, NAMES, |l| hit(l, r"\bsweep_args\b|\bLinkStats\b")));
            found
        },
        &[
            ("crates/bench/src/bin/t.rs", "", "fn main() {}"),
            ("crates/vbus-sim/src/sweep.rs", "", ""),
            ("crates/vbus-sim/src/sim.rs", "", "struct LinkStats;"),
        ],
    );
}

/// Every machine-readable byte is laid out by `crates/diag/src/json.rs`: no second escaper or
/// number helper, no hand-placed `\"key\":` literal outside it. The exact gates are the goldens
/// and the writer's own tests.
#[test]
fn one_json_writer() {
    holds(
        |t| {
            let helpers = r"\bfn json_escape\b|\bfn json_num\b|\bfn json_str\b|\bfn json_opt\b";
            let outside = |p: &str| in_src(p) && !p.starts_with("crates/diag/src/");
            let mut found = lines(t, outside, NAMES, |l| hit(l, helpers));
            // An escaped `\"key\":`, the key one or more word characters.
            let key = |l: &str| {
                l.match_indices("\\\"").any(|(i, _)| {
                    let name =
                        l[i + 2..].bytes().take_while(|&c| c.is_ascii_alphanumeric() || c == b'_');
                    let end = i + 2 + name.count();
                    end > i + 2 && l[end..].starts_with("\\\":")
                })
            };
            let not_the_writer = |p: &str| in_src(p) && p != "crates/diag/src/json.rs";
            found.extend(lines(t, not_the_writer, TEXT, key));
            found
        },
        &[
            ("crates/sched/src/report.rs", "", "fn json_escape(s: &str) -> String { s.into() }"),
            (
                "crates/trace/src/chrome.rs",
                "",
                r#"fn f(o: &mut String) { o.push_str("{\"ts\": 1}"); }"#,
            ),
        ],
    );
}

/// Every setting a user types reads through `crates/diag/src/settings.rs`: no hand-split
/// `key=value` in the six grammar files, and the retired fault-seeding flag stays gone (its name
/// is built from pieces here). The exact gates are `cli_bin`'s flag walk and
/// `crates/sched/tests/settings_tables.rs`.
#[test]
fn one_settings_table() {
    let flag = format!("const F: &str = \"--fault{}seed\";", '-');
    holds(
        |t| {
            let grammars = [
                "crates/core/src/cli.rs",
                "crates/faults/src/spec.rs",
                "crates/recover/src/lib.rs",
                "crates/sched/src/job.rs",
                "crates/serve/src/state.rs",
                "crates/machine/src/parse.rs",
            ];
            let mut found =
                lines(t, |p| grammars.contains(&p), TEXT, |l| l.contains("split_once('=')"));
            let retired = ['-', '_'].map(|s| format!("fault{s}seed"));
            let scope = |p: &str| under(p, &["crates/", "tests/", "examples/", ".github/"]);
            found.extend(lines(t, scope, TEXT, |l| retired.iter().any(|r| l.contains(r.as_str()))));
            found
        },
        &[
            ("crates/machine/src/parse.rs", "", "fn f(s: &str) { s.split_once('='); }"),
            ("examples/quickstart.rs", "", &flag),
        ],
    );
}

/// The paper machine's numbers are written once, in the model crates; `crates/machine` keeps one
/// `settings::Row` per `[section] key`: no key spelled twice, no float literal in `spec.rs`, no
/// mirror structs. The exact gates are `tests/golden/builtin_machines.txt` and
/// `settings_tables.rs`.
#[test]
fn one_machine_table() {
    let dump = vpce_machine::MachineSpec::default().dump();
    let keys: Vec<&str> = dump.lines().filter_map(|l| Some(l.split_once(" = ")?.0)).collect();
    assert_eq!(keys.len(), 45, "{dump}");
    let twice = format!("const K: &str = \"{}\";", keys[1]);
    let quoted = format!("\"{}\"", keys[1]);
    let same_line = format!("{quoted}, ");
    holds(
        |t| {
            let machine: Vec<&str> = t
                .iter()
                .filter(|f| f.path.starts_with("crates/machine/src/"))
                .map(|f| f.text.as_str())
                .collect();
            let mut found = vec![];
            for k in &keys {
                let quoted = format!("\"{k}");
                let spelled = |code: &str| {
                    let ends = |i: usize| {
                        !code[i + quoted.len()..]
                            .starts_with(|c: char| c.is_alphanumeric() || c == '_')
                    };
                    code.match_indices(&quoted).filter(|&(i, _)| ends(i)).count()
                };
                let n: usize = machine.iter().map(|code| spelled(code)).sum();
                if n > 1 {
                    found.push(format!("key `{k}` is spelled {n} times in crates/machine/src"));
                }
            }
            // A digit, `.` and a digit, or a digit, an exponent and a digit.
            let float = |l: &str| {
                let b = l.as_bytes();
                (0..b.len()).any(|i| {
                    let at = |k: usize| b.get(i + k).copied().unwrap_or(b' ');
                    let exp = matches!(at(1), b'e' | b'E');
                    let exp_digit = at(2 + matches!(at(2), b'+' | b'-') as usize);
                    at(0).is_ascii_digit()
                        && (at(1) == b'.' && at(2).is_ascii_digit()
                            || exp && exp_digit.is_ascii_digit())
                })
            };
            found.extend(lines(t, |p| p == "crates/machine/src/spec.rs", TEXT, float));
            let mirrors = [
                r"\bCpuSpec\b|\bNicSpec\b|\bBusSpec\b|\bNodeSpec\b|\bcpu_model\b|\bnic_model\b",
                r"\bprototype_n\b|\bfast_ethernet_n\b|\bconventional_links_n\b|\bpaper_partition\b",
            ];
            let scope = |p: &str| under(p, &["crates/", "tests/", "examples/"]);
            found.extend(lines(t, scope, NAMES, |l| mirrors.iter().any(|m| hit(l, m))));
            found
        },
        &[
            ("crates/machine/src/spec.rs", "", &twice),
            // The second spelling on the line of the first.
            ("crates/machine/src/parse.rs", &quoted, &same_line),
            ("crates/machine/src/spec.rs", "", "const F: f64 = 2.5;"),
            ("crates/machine/src/spec.rs", "", "const G: f64 = 1e-9;"),
            ("examples/quickstart.rs", "", "struct NicSpec;"),
        ],
    );
}

/// The §5.6 check and the epoch scan ask normal forms taken once per footprint: no normalisation
/// and no raw-descriptor overlap in the planner's entry to the check, its sweep, the op question
/// or rmacheck's `Fp::meets`. The exact gate is the work count of polaris-be's
/// `mm_plans_equal_…_with_pinned_work`.
#[test]
fn normal_forms_once() {
    holds(
        |t| {
            let raw = ".normalized()|Lmad::overlaps(|region.overlaps(|Normal::of(";
            let checks = [
                ("crates/polaris-be/src/plan.rs", "fn collects_meet("),
                ("crates/lmad/src/transfer.rs", "pub fn cross_rank_overlap("),
                ("crates/lmad/src/transfer.rs", "pub fn meets("),
                ("crates/rmacheck/src/check.rs", "fn meets("),
            ];
            let mut found = vec![];
            for (path, head) in checks {
                if body(t, path, head).is_none_or(|b| hit(b, raw)) {
                    found.push(format!("{path}: {head}"));
                }
            }
            found
        },
        &[
            (
                "crates/polaris-be/src/plan.rs",
                "let ops: Vec<(usize, &TransferPlan, Normal)>",
                "let _ = Normal::of(&exact[0]);\n",
            ),
            (
                "crates/rmacheck/src/check.rs",
                "self.form.meets(other.form)",
                "self.region.overlaps(&other.region) && ",
            ),
            ("crates/lmad/src/transfer.rs", "pub fn cross_rank_overlap(", "// "),
        ],
    );
}

/// A `CommOp` is one split descriptor and `protocol::steps` the one walk that expands it: no
/// offset lists, no plan-size limit or its panic; the linter, `exec` and the planner ask ops, not
/// messages. The exact gates are lmad's `transfer_walk_is_the_sorted_offset_list`, polaris-be's
/// `a_million_message_plan_is_one_op`, rmacheck's oracle and mpi2's series differential.
#[test]
fn plans_stay_descriptors() {
    holds(
        |t| {
            let limit = "PLAN_LIMIT|transfer plan would need more than";
            let mut found = lines(t, |p| p.starts_with("crates/"), TEXT, |l| hit(l, limit));
            let rules: [(&[&str], &str); 5] = [
                (
                    &["crates/polaris-be/src/plan.rs", "crates/lmad/src/transfer.rs"],
                    "offset_list(|.offsets(",
                ),
                (
                    &["crates/rmacheck/src/lower.rs", "crates/spmd-rt/src/protocol.rs"],
                    r"transfers\b",
                ),
                (&["crates/spmd-rt/src/exec.rs"], ".transfers()"),
                (
                    &["crates/rmacheck/src/"],
                    r"\bfn ops_meet\b|\bfn messages_meet\b|\bstruct Updates\b",
                ),
                (&["crates/polaris-be/src/plan.rs"], "flat_map(TransferPlan::transfers)"),
            ];
            for (files, pat) in rules {
                found.extend(lines(t, |p| under(p, files), NAMES, |l| hit(l, pat)));
            }
            found
        },
        &[
            (
                "crates/lmad/src/transfer.rs",
                "",
                "fn f() { panic!(\"transfer plan would need more than 1048576 messages\"); }",
            ),
            // Below plan.rs's `#[cfg(test)] let` and exec.rs's `#[cfg(test)] fn run_sequential`.
            (
                "crates/polaris-be/src/plan.rs",
                "fn dedup_regions(",
                "fn f(l: &Lmad) { l.offsets(); }\n",
            ),
            (
                "crates/spmd-rt/src/exec.rs",
                "fn combine(op: RedOp",
                "fn f(p: &TransferPlan) { p.transfers(); }\n",
            ),
            ("crates/rmacheck/src/lower.rs", "", "fn f(p: &TransferPlan) { p.transfers(); }"),
            ("crates/rmacheck/src/check.rs", "", "fn messages_meet() {}"),
            (
                "crates/polaris-be/src/plan.rs",
                "fn dedup_regions(",
                "fn g(o: &[P]) { o.flat_map(TransferPlan::transfers); }\n",
            ),
        ],
    );
}

/// The postpass is two halves, `polaris_be::Translated` (statements translated once, the AVPG)
/// and `lower_from` (one grain): a translation outside `Translated::new` would translate per grain
/// again. The exact gates are polaris-be's
/// `grains_lowered_from_one_shared_half_equal_fresh_compiles` and
/// `mm_advise_normalises_its_footprints_once`, and sched's `…_are_analyzed_once`.
#[test]
fn lower_once() {
    let lib = "crates/polaris-be/src/lib.rs";
    holds(
        |t| {
            // Where `Translated::new` lies in lib.rs, by offset: the one place that translates.
            let code = names(t, lib);
            let new = item(code, "impl<'a> Translated<'a>")
                .and_then(|imp| {
                    let new = item(&code[imp.clone()], "pub fn new(")?;
                    Some(imp.start + new.start..imp.start + new.end)
                })
                .unwrap_or(0..0);
            let mut found = vec![];
            for f in t.iter().filter(|f| f.path.starts_with("crates/polaris-be/src/")) {
                for (at, _) in f.names.match_indices("translate_stmts(") {
                    let definition = f.names[..at].ends_with("fn ");
                    let in_new = f.path == lib && new.contains(&at);
                    if !definition && !in_new {
                        let line = f.names[..at].matches('\n').count() + 1;
                        found.push(format!("{}:{line}: translate_stmts(", f.path));
                    }
                }
            }
            let plan = |p: &str| p == "crates/polaris-be/src/plan.rs";
            found.extend(lines(t, plan, NAMES, |l| hit(l, "translate::|translate_")));
            found
        },
        &[
            (
                "crates/polaris-be/src/advisor.rs",
                "",
                "fn f(s: &[Stmt], y: &Symbols) { crate::translate::translate_stmts(s, y); }",
            ),
            // A verbatim copy of a line of `Translated::new`, in `lower_from`.
            (
                lib,
                "                Region::Parallel(pl) => {\n",
                "                Region::Seq(seq) => translate::translate_stmts(&seq.stmts, symbols).into(),\n",
            ),
            ("crates/polaris-be/src/plan.rs", "fn dedup_regions(", "use crate::translate::translate_stmts;\n"),
        ],
    );
}

/// The interpreter's strip reads a load where it lives: no zeroed stack strip, no load gathered
/// into a buffer in `State::strip`. CI's cliff gate times MM at N = 256 / 512 / 1 024; the exact
/// gates are the shape tests in `tests/pipeline_integration.rs` and spmd-rt's oracle.
#[test]
fn interpreter_cliff_gate() {
    let lowered = "crates/spmd-rt/src/lowered.rs";
    holds(
        |t| {
            let mut found = lines(t, |p| p == lowered, TEXT, |l| l.contains("[0.0; STRIP]"));
            let strip = body(t, lowered, "fn strip(");
            if strip.is_none_or(|s| hit(s, "copy_from_slice|SExpr::Load { array")) {
                found.push(format!("strip: {strip:?}"));
            }
            found
        },
        &[
            (lowered, "", "fn f() -> [f64; STRIP] { [0.0; STRIP] }"),
            (
                lowered,
                "SExpr::FromInt(cursor) => {",
                "_ if true => out.copy_from_slice(scratch),\n",
            ),
        ],
    );
}

/// The reading every gate shares, on the cases that broke the old ones.
#[test]
fn the_stripper_reads_code_not_prose_or_tests() {
    let squash = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    let read = |src: &str| {
        let f = File::new("crates/x/src/a.rs", src);
        (squash(&f.text), squash(&f.names), f.test_files)
    };
    let cases = [
        (
            "let u = \"https://x\"; let c = '/'; // c",
            "let u = \"https://x\"; let c = '/';",
            "let u = \" \"; let c = ' ';",
        ),
        (
            "fn f<'a>(x: &'a u8) -> char { 'a' }",
            "fn f<'a>(x: &'a u8) -> char { 'a' }",
            "fn f<'a>(x: &'a u8) -> char { ' ' }",
        ),
        ("let s = r#\"a \"b\" // c\"#; s", "let s = r#\"a \"b\" // c\"#; s", "let s = r#\" \"#; s"),
        ("/* a /* nested */ b */ x", "x", "x"),
        ("//! on `#[cfg(test)]` and\nfn kept() {}", "fn kept() {}", "fn kept() {}"),
        ("{ #[cfg(test)]\nlet w = if a { 1 } else { 2 }; f(w) }", "{ f(w) }", "{ f(w) }"),
        (
            "impl S { #[cfg(test)] fn t(&self) {} fn u(&self) {} }",
            "impl S { fn u(&self) {} }",
            "impl S { fn u(&self) {} }",
        ),
        (
            "#[cfg(test)]\n#[allow(x)] // y\nimpl S {}\nfn classify() {}",
            "fn classify() {}",
            "fn classify() {}",
        ),
    ];
    for (src, text, names) in cases {
        assert_eq!(read(src), (text.into(), names.into(), vec![]), "{src}");
    }
    let declared = read("#[cfg(test)]\nmod oracle;\nfn kept() {}");
    let oracle = vec!["crates/x/src/a/oracle.rs".to_string()];
    assert_eq!(declared, ("fn kept() {}".into(), "fn kept() {}".into(), oracle));
    assert!(tree().iter().any(|f| f.path == "crates/spmd-rt/src/oracle.rs" && f.text.is_empty()));
}
