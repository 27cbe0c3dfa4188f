//! # vpce-diag — the shared diagnostic model of the static checkers
//!
//! `vpcec --lint` (the RMA race checker, `vpce-rmacheck`) and
//! `vpcec --verify` (the progress verifier, `vpce-commcheck`) emit
//! findings through one rendering path defined here, so codes,
//! severities, provenance fields, ordering, and both output formats
//! (terminal text and stable JSON) stay consistent across tools. The
//! byte-exact golden tests of both tools pin this module's output.
//!
//! ## The VPCE code registry
//!
//! Codes are stable wire strings: once published they never change
//! meaning or number. The registry, across all tools:
//!
//! | code    | severity | tool   | meaning |
//! |---------|----------|--------|---------|
//! | VPCE001 | error    | lint   | PUT/PUT overlap inside one epoch |
//! | VPCE002 | error    | lint   | PUT/GET overlap inside one epoch |
//! | VPCE003 | error    | lint   | remote op vs. local access in an open epoch |
//! | VPCE004 | error    | lint   | RMA op never closed by a fence |
//! | VPCE005 | error    | lint   | ranks disagree on the sync sequence |
//! | VPCE006 | error    | lint   | unsound AVPG elision (stale master copy) |
//! | VPCE007 | error    | lint   | RMA op or compute footprint past its window's end |
//! | VPCE101 | warning  | lint   | same-origin overlapping writes |
//! | VPCE102 | warning  | lint   | same-origin redundant read/write overlap |
//! | VPCE201 | error    | verify | deadlock: an interleaving reaches a global stall |
//! | VPCE202 | error    | verify | collective/fence mismatch or rank-divergent sync |
//! | VPCE203 | error    | verify | rendezvous RTS/CTS wait cycle |
//! | VPCE204 | error    | verify | registered-pool exhaustion deadlock |
//! | VPCE205 | error    | verify | blocked on a crash-drained peer (orphaned handshake) |
//! | VPCE206 | error    | verify | scheduler-reservation deadlock |
//! | VPCE207 | error    | verify | receive no surviving rank ever matches |
//! | VPCE208 | error    | verify | handshake half orphaned by a finished peer |
//! | VPCE209 | error    | verify | more than 32 ranks: refused, nothing explored |
//! | VPCE210 | warning  | verify | progress depends on eager pool size ≥ N |
//! | VPCE301 | warning  | serve  | torn journal tail truncated (crash mid-append) |
//! | VPCE302 | error    | serve  | journal corrupt before the tail; recovery refused |
//! | VPCE303 | error    | serve  | replay re-derived a different history than journaled |
//! | VPCE304 | error    | serve  | client verb names a job the journal never saw |
//! | VPCE305 | error    | serve  | submission reuses a live job name |
//! | VPCE306 | error    | serve  | submission can never run under its tenant's quota |
//! | VPCE307 | error    | serve  | serve-script line is not a record or known verb |
//! | VPCE308 | warning  | serve  | cancel/preempt target cannot stop at a boundary |
//! | VPCE310 | error    | jobfile | unrecognisable jobfile line |
//! | VPCE311 | error    | jobfile | unknown key on a jobfile record |
//! | VPCE312 | error    | jobfile | unparsable value for a jobfile field |
//! | VPCE313 | error    | jobfile | required jobfile field missing |
//! | VPCE314 | error    | jobfile | duplicate job name in one jobfile |
//! | VPCE315 | error    | jobfile | mutually exclusive jobfile fields combined |
//! | VPCE316 | error    | jobfile | header directive or record key given twice |
//! | VPCE320 | error    | faults | duplicate key in one --faults spec |
//! | VPCE321 | error    | faults | unknown --faults key |
//! | VPCE322 | error    | faults | unparsable or out-of-range --faults value |
//! | VPCE401 | warning  | recover | in-run recovery absorbed one or more crashes |
//! | VPCE402 | error    | recover | rollback budget exhausted by the crash schedule |
//! | VPCE403 | error    | recover | spare-node pool exhausted; crashed rank unplaceable |
//! | VPCE404 | error    | recover | every buddy replica died with the crashed rank |
//! | VPCE500 | error    | machine | unrecognisable machine-description line |
//! | VPCE501 | error    | machine | unknown machine-description section |
//! | VPCE502 | error    | machine | unknown key for a machine-description section |
//! | VPCE503 | error    | machine | unparsable or out-of-range machine value |
//! | VPCE504 | error    | machine | unresolvable, cyclic, or misplaced include |
//! | VPCE505 | error    | machine | topology constraints unsatisfiable (dims, pod counts) |
//! | VPCE506 | error    | machine | key set twice in one section of one file |
//!
//! Each checker owns its code *enum* (and therefore the
//! 0xx/2xx/30x/31x namespace split); this crate owns everything the
//! enums have in common: the [`DiagCode`] trait, the [`Diagnostic`]
//! record, and the [`Report`] container with its two renderers. The
//! JSON one is written through [`json`], the writer every other
//! machine-readable document of the tool uses too.

#![forbid(unsafe_code)]

pub mod json;
pub mod settings;

use std::fmt::Write as _;

use json::{Layout, Object};

/// How bad a finding is. Errors are undefined-outcome conflicts or
/// guaranteed-stall interleavings; warnings are legal-but-suspect
/// patterns (overlap, conditional progress).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

/// A tool's stable diagnostic code enum. Implementations must keep
/// `as_str` values frozen once published — golden tests and CI diff
/// against them.
pub trait DiagCode: Copy + Eq + Ord + std::fmt::Debug {
    /// The stable wire string, e.g. `"VPCE001"`.
    fn as_str(self) -> &'static str;
    /// The fixed severity of this code.
    fn severity(self) -> Severity;
}

/// One finding, with enough provenance to locate it in both the plan
/// (window, shard, ranks, phase) and the source (loop line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic<C> {
    pub code: C,
    /// Window index (= array index); `usize::MAX` when not tied to a
    /// particular window.
    pub win: usize,
    /// Window (array) name, empty when not applicable.
    pub win_name: String,
    /// Rank owning the shard where the footprints collide;
    /// `usize::MAX` when not applicable.
    pub shard: usize,
    /// The two involved ranks (sorted; equal for single-rank
    /// findings; `usize::MAX` when not applicable).
    pub ranks: (usize, usize),
    /// Source line of the originating loop (0 = unknown).
    pub line: usize,
    /// Plan site: which lowering phase produced the operations
    /// (`scatter`, `collect`, `compute`, `sync`, `avpg`, ...).
    pub site: String,
    /// Human-readable explanation.
    pub detail: String,
}

impl<C: DiagCode> Diagnostic<C> {
    /// A finding with every provenance field at its "not applicable"
    /// sentinel; callers fill in what they know.
    pub fn bare(code: C) -> Self {
        Diagnostic {
            code,
            win: usize::MAX,
            win_name: String::new(),
            shard: usize::MAX,
            ranks: (usize::MAX, usize::MAX),
            line: 0,
            site: String::new(),
            detail: String::new(),
        }
    }

    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

/// The full result of one static-checker run over one program. `tool`
/// and `clean_message` parameterise the rendering (`lint: p: clean
/// (no RMA conflicts)` vs. `verify: p: clean (...)`); everything else
/// is shared verbatim between the tools.
#[derive(Debug, Clone)]
pub struct Report<C> {
    /// The renderer prefix: `"lint"` or `"verify"`.
    pub tool: &'static str,
    /// What a finding-free run prints after the program name.
    pub clean_message: &'static str,
    pub program: String,
    pub diags: Vec<Diagnostic<C>>,
}

impl<C: DiagCode> Report<C> {
    pub fn new(
        tool: &'static str,
        clean_message: &'static str,
        program: impl Into<String>,
    ) -> Self {
        Report {
            tool,
            clean_message,
            program: program.into(),
            diags: Vec::new(),
        }
    }

    pub fn push(&mut self, d: Diagnostic<C>) {
        self.diags.push(d);
    }

    /// Deterministic presentation order: errors first, then by code,
    /// window, shard, ranks, line.
    pub fn sort(&mut self) {
        self.diags.sort_by(|a, b| {
            b.severity()
                .cmp(&a.severity())
                .then(a.code.cmp(&b.code))
                .then(a.win.cmp(&b.win))
                .then(a.shard.cmp(&b.shard))
                .then(a.ranks.cmp(&b.ranks))
                .then(a.line.cmp(&b.line))
                .then(a.detail.cmp(&b.detail))
        });
        self.diags.dedup();
    }

    pub fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Process exit code: 0 clean, 1 warnings only, 2 any error.
    pub fn exit_code(&self) -> i32 {
        if self.errors() > 0 {
            2
        } else if self.warnings() > 0 {
            1
        } else {
            0
        }
    }

    /// Terminal rendering.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            let _ = writeln!(
                out,
                "{}: {}: {}",
                self.tool, self.program, self.clean_message
            );
            return out;
        }
        for d in &self.diags {
            let _ = write!(out, "{}[{}]", severity_name(d.severity()), d.code.as_str());
            if !d.win_name.is_empty() {
                let _ = write!(out, " window {}", d.win_name);
            }
            if d.shard != usize::MAX {
                let _ = write!(out, " shard {}", d.shard);
            }
            if d.ranks.0 != usize::MAX {
                if d.ranks.0 == d.ranks.1 {
                    let _ = write!(out, " rank {}", d.ranks.0);
                } else {
                    let _ = write!(out, " ranks {}/{}", d.ranks.0, d.ranks.1);
                }
            }
            if d.line > 0 {
                let _ = write!(out, " (loop at line {})", d.line);
            }
            let _ = writeln!(out, " [{}]: {}", d.site, d.detail);
        }
        let _ = writeln!(
            out,
            "{}: {}: {} error(s), {} warning(s)",
            self.tool,
            self.program,
            self.errors(),
            self.warnings()
        );
        out
    }

    /// Machine-readable JSON: stable key order, one canonical shape.
    pub fn to_json(&self) -> String {
        self.to_json_with(|_| {})
    }

    /// JSON rendering with extra top-level members, written by
    /// `extras`, between `diagnostics` and `summary`; with none the
    /// output is byte-identical to [`Report::to_json`] (the shape the
    /// lint goldens pin).
    pub fn to_json_with(&self, extras: impl FnOnce(&mut Object<'_>)) -> String {
        json::document(Layout::Block(2), |o| {
            o.str("program", &self.program);
            {
                let mut diags = o.array("diagnostics", Layout::Block(4));
                for d in &self.diags {
                    let mut j = diags.object(Layout::Inline);
                    j.str("code", d.code.as_str())
                        .str("severity", severity_name(d.severity()));
                    if d.win != usize::MAX {
                        j.int("win", d.win).str("window", &d.win_name);
                    }
                    if d.shard != usize::MAX {
                        j.int("shard", d.shard);
                    }
                    if d.ranks.0 != usize::MAX {
                        j.ints("ranks", [d.ranks.0, d.ranks.1]);
                    }
                    j.int("line", d.line)
                        .str("site", &d.site)
                        .str("detail", &d.detail);
                }
            }
            extras(o);
            o.object("summary", Layout::Inline)
                .int("errors", self.errors())
                .int("warnings", self.warnings())
                .int("exit", self.exit_code());
        })
    }
}

fn severity_name(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum TestCode {
        Boom,
        Meh,
    }

    impl DiagCode for TestCode {
        fn as_str(self) -> &'static str {
            match self {
                TestCode::Boom => "VPCE901",
                TestCode::Meh => "VPCE999",
            }
        }
        fn severity(self) -> Severity {
            match self {
                TestCode::Boom => Severity::Error,
                TestCode::Meh => Severity::Warning,
            }
        }
    }

    fn diag(code: TestCode) -> Diagnostic<TestCode> {
        Diagnostic {
            code,
            win: 0,
            win_name: "A".into(),
            shard: 0,
            ranks: (1, 2),
            line: 3,
            site: "collect".into(),
            detail: "x".into(),
        }
    }

    fn report() -> Report<TestCode> {
        Report::new("check", "clean (nothing found)", "p")
    }

    #[test]
    fn exit_codes_follow_severity() {
        let mut r = report();
        assert_eq!(r.exit_code(), 0);
        r.push(diag(TestCode::Meh));
        assert_eq!(r.exit_code(), 1);
        r.push(diag(TestCode::Boom));
        assert_eq!(r.exit_code(), 2);
    }

    #[test]
    fn sort_puts_errors_before_warnings_and_dedups() {
        let mut r = report();
        r.push(diag(TestCode::Meh));
        r.push(diag(TestCode::Boom));
        r.push(diag(TestCode::Boom));
        r.sort();
        assert_eq!(r.diags.len(), 2);
        assert_eq!(r.diags[0].code, TestCode::Boom);
        assert_eq!(r.diags[1].code, TestCode::Meh);
    }

    #[test]
    fn human_rendering_uses_tool_and_clean_message() {
        let mut r = report();
        assert_eq!(r.render_human(), "check: p: clean (nothing found)\n");
        r.push(diag(TestCode::Boom));
        let text = r.render_human();
        assert!(text.starts_with("error[VPCE901] window A shard 0 ranks 1/2"));
        assert!(text.ends_with("check: p: 1 error(s), 0 warning(s)\n"));
    }

    #[test]
    fn bare_sentinels_suppress_provenance_fields() {
        let mut r = report();
        let mut d = Diagnostic::bare(TestCode::Boom);
        d.site = "explore".into();
        d.detail = "stalls".into();
        r.push(d);
        let text = r.render_human();
        assert!(text.contains("error[VPCE901] [explore]: stalls"), "{text}");
        assert!(!text.contains("window") && !text.contains("shard"));
        let json = r.to_json();
        assert!(!json.contains("\"win\"") && !json.contains("\"ranks\""));
        assert!(json.contains("\"line\": 0"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = Report::<TestCode>::new("check", "clean", "quo\"te");
        let mut d = diag(TestCode::Boom);
        d.detail = "line1\nline2".into();
        r.push(d);
        let j = r.to_json();
        assert!(j.contains("\"program\": \"quo\\\"te\""));
        assert!(j.contains("\"code\": \"VPCE901\""));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"exit\": 2"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn extras_splice_between_diagnostics_and_summary() {
        let r = report();
        let plain = r.to_json();
        let with = r.to_json_with(|o| {
            o.raw("counterexample", "{\"steps\": []}");
        });
        assert_ne!(plain, with);
        assert!(with.contains("  \"counterexample\": {\"steps\": []},\n  \"summary\""));
        // No extras → byte-identical to the plain rendering.
        assert_eq!(plain, r.to_json_with(|_| {}));
    }
}
