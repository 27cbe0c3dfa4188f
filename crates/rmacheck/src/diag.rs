//! The linter's diagnostic surface: the stable `VPCE0xx` code enum
//! plus aliases onto the shared rendering model in [`vpce_diag`] (one
//! path serves `--lint` and `--verify`, so provenance format, ordering
//! and JSON shape stay consistent across tools — and the byte-exact
//! lint goldens pin that shared path).

pub use vpce_diag::Severity;

/// The stable lint diagnostic codes. Numeric values never change once
/// published: golden tests and CI diff against them. (The full VPCE
/// registry across tools is tabulated in `vpce_diag`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Two PUTs from different origins overlap on one shard inside a
    /// single access epoch.
    PutPut,
    /// A PUT and a GET touch the same elements inside one epoch
    /// (either the GET's target-side read or its origin-side write).
    PutGet,
    /// A remote operation collides with a rank's own local load/store
    /// while the window epoch is open.
    PutLocal,
    /// An RMA operation is issued after the last fence of its rank —
    /// it never completes inside any exposure epoch.
    Unfenced,
    /// Ranks disagree on the synchronisation sequence (fence/barrier/
    /// collective order): the program deadlocks or pairs fences across
    /// different epochs.
    DivergentSync,
    /// An AVPG-elided collect left the master copy stale, and the
    /// stale region is consumed later (or survives to program exit).
    UnsoundElision,
    /// An RMA operation or a compute footprint reaches outside its
    /// window's declared length: the run would end in "RMA past end of
    /// window" or a subscript out of range.
    WindowBounds,
    /// One origin wrote the same elements twice in one epoch
    /// (last-writer ambiguity; the simulator resolves it by sequence
    /// number, real MPI-2 does not).
    SameOriginOverlap,
    /// One origin read and wrote the same elements in one epoch
    /// (e.g. overlapping GETs into the same local region).
    RedundantOverlap,
}

impl Code {
    /// The stable wire string, e.g. `"VPCE001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::PutPut => "VPCE001",
            Code::PutGet => "VPCE002",
            Code::PutLocal => "VPCE003",
            Code::Unfenced => "VPCE004",
            Code::DivergentSync => "VPCE005",
            Code::UnsoundElision => "VPCE006",
            Code::WindowBounds => "VPCE007",
            Code::SameOriginOverlap => "VPCE101",
            Code::RedundantOverlap => "VPCE102",
        }
    }

    pub fn severity(self) -> Severity {
        match self {
            Code::SameOriginOverlap | Code::RedundantOverlap => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl vpce_diag::DiagCode for Code {
    fn as_str(self) -> &'static str {
        Code::as_str(self)
    }
    fn severity(self) -> Severity {
        Code::severity(self)
    }
}

/// One lint finding (the shared record, carrying this crate's codes).
pub type Diagnostic = vpce_diag::Diagnostic<Code>;

/// The full lint result for one compiled program.
pub type LintReport = vpce_diag::Report<Code>;

/// A fresh, empty lint report for `program` with the linter's
/// rendering style.
pub(crate) fn new_report(program: impl Into<String>) -> LintReport {
    LintReport::new("lint", "clean (no RMA conflicts)", program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: Code) -> Diagnostic {
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

    #[test]
    fn exit_codes_follow_severity() {
        let mut r = new_report("p");
        assert_eq!(r.exit_code(), 0);
        r.push(diag(Code::SameOriginOverlap));
        assert_eq!(r.exit_code(), 1);
        r.push(diag(Code::PutPut));
        assert_eq!(r.exit_code(), 2);
    }

    #[test]
    fn sort_puts_errors_before_warnings_and_dedups() {
        let mut r = new_report("p");
        r.push(diag(Code::SameOriginOverlap));
        r.push(diag(Code::PutPut));
        r.push(diag(Code::PutPut));
        r.sort();
        assert_eq!(r.diags.len(), 2);
        assert_eq!(r.diags[0].code, Code::PutPut);
        assert_eq!(r.diags[1].code, Code::SameOriginOverlap);
    }

    #[test]
    fn rendering_keeps_the_pre_extraction_format() {
        // The goldens pin these exact shapes; the shared emitter must
        // reproduce them byte-for-byte.
        let mut r = new_report("p");
        assert_eq!(r.render_human(), "lint: p: clean (no RMA conflicts)\n");
        r.push(diag(Code::PutPut));
        let text = r.render_human();
        assert_eq!(
            text,
            "error[VPCE001] window A shard 0 ranks 1/2 (loop at line 3) [collect]: x\n\
             lint: p: 1 error(s), 0 warning(s)\n"
        );
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = new_report("quo\"te");
        let mut d = diag(Code::PutGet);
        d.detail = "line1\nline2".into();
        r.push(d);
        let j = r.to_json();
        assert!(j.contains("\"program\": \"quo\\\"te\""));
        assert!(j.contains("\"code\": \"VPCE002\""));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"exit\": 2"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::PutPut.as_str(), "VPCE001");
        assert_eq!(Code::PutGet.as_str(), "VPCE002");
        assert_eq!(Code::PutLocal.as_str(), "VPCE003");
        assert_eq!(Code::Unfenced.as_str(), "VPCE004");
        assert_eq!(Code::DivergentSync.as_str(), "VPCE005");
        assert_eq!(Code::UnsoundElision.as_str(), "VPCE006");
        assert_eq!(Code::WindowBounds.as_str(), "VPCE007");
        assert_eq!(Code::SameOriginOverlap.as_str(), "VPCE101");
        assert_eq!(Code::RedundantOverlap.as_str(), "VPCE102");
    }
}
