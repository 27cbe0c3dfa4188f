//! The property-test runner: random cases, automatic shrinking, seed
//! reporting, and regression-seed persistence.
//!
//! ## Reproducibility contract
//!
//! Every case is generated from a single u64 *case seed*. By default
//! the stream of case seeds is derived from the property's name, so a
//! bare `cargo test` is fully deterministic. When a property fails,
//! the runner shrinks the counterexample and panics with a message
//! containing the failing case seed; re-running with
//! `VPCE_TESTKIT_SEED=<that seed>` replays that exact case first and
//! — because shrinking is itself deterministic — lands on the
//! identical shrunken counterexample.
//!
//! Failing seeds are also appended to
//! `testkit-regressions/<property>.seeds` under the crate root, and
//! replayed before any fresh cases on subsequent runs (check the file
//! in, like a `.proptest-regressions`).
//!
//! Environment knobs:
//! * `VPCE_TESTKIT_SEED` — decimal or `0x…` hex; run this case first.
//! * `VPCE_TESTKIT_CASES` — override every property's case count.

use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use crate::gen::{Gen, Source};
use crate::rng::SplitMix64;

/// Why a single case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropError {
    /// The case was outside the property's precondition; it counts
    /// toward neither success nor failure.
    Discard,
    /// The property is false for this case.
    Fail(String),
}

impl PropError {
    /// Construct a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        PropError::Fail(msg.into())
    }
}

/// What a property body returns.
pub type PropResult = Result<(), PropError>;

/// Assert inside a property; on failure the case fails (and shrinks)
/// instead of tearing down the process.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::prop::PropError::fail(format!($($fmt)*)));
        }
    };
}

/// Assert two values are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {:?} != {:?}: {}",
            a, b, format!($($fmt)*)
        );
    }};
}

/// Discard the current case unless its precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::PropError::Discard);
        }
    };
}

// ---------------------------------------------------------------------
// Panic-noise suppression while the harness probes cases
// ---------------------------------------------------------------------

static SUPPRESS: AtomicUsize = AtomicUsize::new(0);
static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SUPPRESS.load(Ordering::Relaxed) == 0 {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(name: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A configured property check. Build with [`Check::new`], tune, then
/// [`Check::run`].
pub struct Check {
    name: String,
    cases: u32,
    shrink_budget: u32,
    /// Where the regression seeds live, when not
    /// `testkit-regressions/` under the crate root.
    regressions: Option<std::path::PathBuf>,
}

/// Convenience: run a property with default settings.
pub fn check<T: Debug + 'static>(name: &str, gen: &Gen<T>, prop: impl Fn(&T) -> PropResult) {
    Check::new(name).run(gen, prop);
}

enum CaseOutcome {
    Pass,
    Discard,
    Fail(String),
}

impl Check {
    /// A check named `name` (use `module::property` style names; the
    /// name seeds the default case stream and names the regression
    /// file).
    pub fn new(name: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            cases: 64,
            shrink_budget: 2048,
            regressions: None,
        }
    }

    /// Keep this check's regression seeds in `dir` (the runner's own
    /// tests, whose properties fail on purpose, write outside the
    /// checkout).
    #[cfg(test)]
    fn regressions_in(mut self, dir: std::path::PathBuf) -> Self {
        self.regressions = Some(dir);
        self
    }

    /// Number of passing cases required (default 64).
    pub fn cases(mut self, n: u32) -> Self {
        self.cases = n;
        self
    }

    /// Maximum number of candidate evaluations while shrinking
    /// (default 2048).
    pub fn shrink_budget(mut self, n: u32) -> Self {
        self.shrink_budget = n;
        self
    }

    /// Run the property. Panics (test failure) on the first — fully
    /// shrunken — counterexample.
    pub fn run<T: Debug + 'static>(self, gen: &Gen<T>, prop: impl Fn(&T) -> PropResult) {
        install_quiet_hook();
        let cases = std::env::var("VPCE_TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases);
        let env_seed = std::env::var("VPCE_TESTKIT_SEED")
            .ok()
            .and_then(|v| parse_seed(&v));

        // 1. Saved regression seeds replay first, always.
        for seed in self.load_regression_seeds() {
            self.run_case(gen, &prop, seed, true);
        }

        // 2. An explicit seed from the environment runs next.
        if let Some(seed) = env_seed {
            self.run_case(gen, &prop, seed, true);
        }

        // 3. Fresh cases from the derived seed stream.
        let mut stream = SplitMix64::new(env_seed.unwrap_or_else(|| fnv1a(&self.name)));
        let mut passed = 0u32;
        let mut discarded = 0u32;
        while passed < cases {
            let seed = stream.next_u64();
            if self.run_case(gen, &prop, seed, false) {
                passed += 1;
            } else {
                discarded += 1;
                assert!(
                    discarded < cases.saturating_mul(10).max(100),
                    "[vpce-testkit] property '{}' discarded {} cases \
                     (only {} passed) — precondition too strict",
                    self.name,
                    discarded,
                    passed
                );
            }
        }
    }

    /// Run one case; returns true if it passed, false if discarded.
    /// Failures shrink and panic.
    fn run_case<T: Debug + 'static>(
        &self,
        gen: &Gen<T>,
        prop: &impl Fn(&T) -> PropResult,
        seed: u64,
        replayed: bool,
    ) -> bool {
        let mut src = Source::random(seed);
        let value = gen.generate(&mut src);
        let tape = src.recording();
        match Self::eval(prop, &value) {
            CaseOutcome::Pass => true,
            CaseOutcome::Discard => false,
            CaseOutcome::Fail(msg) => {
                let (min_value, min_msg) = self.shrink(gen, prop, tape, value, msg);
                if !replayed {
                    self.save_regression_seed(seed, &min_value);
                }
                panic!(
                    "[vpce-testkit] property '{}' failed (seed 0x{:016x})\n\
                     minimal counterexample: {:#?}\n\
                     error: {}\n\
                     reproduce with: VPCE_TESTKIT_SEED=0x{:016x}",
                    self.name, seed, min_value, min_msg, seed
                );
            }
        }
    }

    fn eval<T: Debug>(prop: &impl Fn(&T) -> PropResult, value: &T) -> CaseOutcome {
        SUPPRESS.fetch_add(1, Ordering::Relaxed);
        let out = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
        SUPPRESS.fetch_sub(1, Ordering::Relaxed);
        match out {
            Ok(Ok(())) => CaseOutcome::Pass,
            Ok(Err(PropError::Discard)) => CaseOutcome::Discard,
            Ok(Err(PropError::Fail(msg))) => CaseOutcome::Fail(msg),
            Err(payload) => CaseOutcome::Fail(format!("panic: {}", panic_message(payload))),
        }
    }

    /// Greedy choice-stream shrinking: delete blocks, zero blocks,
    /// then reduce individual choices, repeating to a fixpoint (or the
    /// eval budget). Deterministic, so a replayed seed reproduces the
    /// identical minimal counterexample.
    fn shrink<T: Debug + 'static>(
        &self,
        gen: &Gen<T>,
        prop: &impl Fn(&T) -> PropResult,
        mut tape: Vec<u64>,
        mut value: T,
        mut msg: String,
    ) -> (T, String) {
        let mut budget = self.shrink_budget;
        // Strict well-ordering on tapes: fewer choices, or the same
        // number and lexicographically smaller. Guarantees termination
        // — a candidate that regenerates an equivalent (or larger)
        // tape is never accepted, so every acceptance makes progress.
        fn smaller(new: &[u64], old: &[u64]) -> bool {
            new.len() < old.len() || (new.len() == old.len() && new < old)
        }
        let attempt = |candidate: Vec<u64>,
                           current: &[u64],
                           budget: &mut u32|
         -> Option<(Vec<u64>, T, String)> {
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            let mut src = Source::replay(candidate);
            let v = gen.generate(&mut src);
            let tape = src.recording();
            if !smaller(&tape, current) {
                return None;
            }
            match Self::eval(prop, &v) {
                CaseOutcome::Fail(m) => Some((tape, v, m)),
                _ => None,
            }
        };
        loop {
            let mut improved = false;
            // Pass 1: delete blocks of choices (shortens structures).
            for block in [8usize, 4, 2, 1] {
                let mut start = 0;
                while start + block <= tape.len() {
                    let mut cand = tape.clone();
                    cand.drain(start..start + block);
                    if let Some((t, v, m)) = attempt(cand, &tape, &mut budget) {
                        tape = t;
                        value = v;
                        msg = m;
                        improved = true;
                        // Re-test the same start: the tape shifted.
                    } else {
                        start += block;
                    }
                }
            }
            // Pass 2: zero whole blocks (collapses subtrees to minima).
            for block in [8usize, 4, 2, 1] {
                let mut start = 0;
                while start + block <= tape.len() {
                    if tape[start..start + block].iter().all(|&v| v == 0) {
                        start += block;
                        continue;
                    }
                    let mut cand = tape.clone();
                    for c in &mut cand[start..start + block] {
                        *c = 0;
                    }
                    if let Some((t, v, m)) = attempt(cand, &tape, &mut budget) {
                        tape = t;
                        value = v;
                        msg = m;
                        improved = true;
                    }
                    start += block;
                }
            }
            // Pass 3: reduce single choices toward zero.
            for i in 0..tape.len() {
                while tape.get(i).copied().unwrap_or(0) != 0 {
                    let cur = tape[i];
                    let mut reduced = false;
                    for smaller in [0, cur / 2, cur - 1] {
                        if smaller >= cur {
                            continue;
                        }
                        let mut cand = tape.clone();
                        cand[i] = smaller;
                        if let Some((t, v, m)) = attempt(cand, &tape, &mut budget) {
                            tape = t;
                            value = v;
                            msg = m;
                            improved = true;
                            reduced = true;
                            break;
                        }
                    }
                    if !reduced {
                        break;
                    }
                }
            }
            if !improved || budget == 0 {
                return (value, msg);
            }
        }
    }

    // -----------------------------------------------------------------
    // Regression-seed persistence
    // -----------------------------------------------------------------

    fn regression_path(&self) -> Option<std::path::PathBuf> {
        let dir = match &self.regressions {
            Some(dir) => dir.clone(),
            None => std::path::Path::new(&std::env::var("CARGO_MANIFEST_DIR").ok()?).join("testkit-regressions"),
        };
        let slug: String = self
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Some(dir.join(format!("{slug}.seeds")))
    }

    fn load_regression_seeds(&self) -> Vec<u64> {
        let Some(path) = self.regression_path() else {
            return Vec::new();
        };
        let Ok(text) = std::fs::read_to_string(path) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|l| {
                let l = l.trim();
                if l.is_empty() || l.starts_with('#') {
                    return None;
                }
                parse_seed(l.split_whitespace().next()?)
            })
            .collect()
    }

    fn save_regression_seed<T: Debug>(&self, seed: u64, value: &T) {
        let Some(path) = self.regression_path() else {
            return;
        };
        // Best-effort: a read-only checkout must not turn a genuine
        // property failure into an I/O panic. The directory is made
        // here, where its first seed file is written, and nowhere else.
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let header = if path.exists() {
            String::new()
        } else {
            "# vpce-testkit regression seeds for this property.\n\
             # Replayed before fresh cases on every run; check this file in.\n"
                .to_string()
        };
        let line = format!(
            "{header}0x{seed:016x} # shrinks to {}\n",
            format!("{value:?}").replace('\n', " ")
        );
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// A check whose seeds go to its own directory under the system
    /// temp dir: these properties fail on purpose, and a seed file in
    /// the checkout would make every later run replay it.
    fn scratch(name: &str) -> Check {
        let slug: String = name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        let dir = std::env::temp_dir().join(format!("vpce-testkit-{}-{slug}", std::process::id()));
        Check::new(name).regressions_in(dir)
    }

    /// Remove what `scratch(name)` may have written.
    fn clean(name: &str) {
        if let Some(dir) = scratch(name).regression_path().as_deref().and_then(std::path::Path::parent) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn failing_properties_keep_their_seeds_outside_the_checkout() {
        let root = env!("CARGO_MANIFEST_DIR");
        for name in ["tk::shrink_sum", "tk::panics", "tk::repro", "tk::repro_direct"] {
            let path = scratch(name).regression_path().expect("a scratch check has a path");
            assert!(!path.starts_with(root), "{} is inside {root}", path.display());
        }
        let default = Check::new("tk::default").regression_path().expect("cargo sets the manifest dir");
        assert!(default.starts_with(root), "{}", default.display());
    }

    #[test]
    fn passing_property_completes() {
        Check::new("tk::passing")
            .cases(50)
            .run(&gen::vec_of(gen::i64_in(0, 100), 0, 20), |v| {
                prop_assert!(v.iter().all(|&x| (0..=100).contains(&x)));
                Ok(())
            });
    }

    #[test]
    fn discards_are_tolerated() {
        Check::new("tk::discards")
            .cases(20)
            .run(&gen::i64_in(0, 9), |&x| {
                prop_assume!(x % 2 == 0);
                prop_assert!(x <= 8);
                Ok(())
            });
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // Property: all vec sums < 50. Minimal counterexample is a
        // single element of exactly 50.
        let out = std::panic::catch_unwind(|| {
            scratch("tk::shrink_sum").cases(200).run(
                &gen::vec_of(gen::i64_in(0, 60), 0, 12),
                |v| {
                    let s: i64 = v.iter().sum();
                    prop_assert!(s < 50, "sum {s}");
                    Ok(())
                },
            );
        });
        let msg = panic_message(out.expect_err("property must fail"));
        assert!(msg.contains("failed"), "{msg}");
        // Greedy shrinking must drive the sum down to the exact
        // failure boundary (it may stop at any partition of 50).
        assert!(msg.contains("error: sum 50"), "not minimal:\n{msg}");
        // Clean up the regression seed this intentional failure saved.
        clean("tk::shrink_sum");
    }

    #[test]
    fn panics_are_failures_and_shrunk() {
        let out = std::panic::catch_unwind(|| {
            scratch("tk::panics").cases(100).run(&gen::i64_in(0, 1000), |&x| {
                assert!(x < 500, "boom at {x}");
                Ok(())
            });
        });
        let msg = panic_message(out.expect_err("property must fail"));
        assert!(msg.contains("panic: boom at 500"), "{msg}");
        clean("tk::panics");
    }

    #[test]
    fn failure_is_deterministic_and_seed_reproducible() {
        // The reported seed, replayed directly, must reproduce the
        // identical shrunken counterexample — the acceptance criterion.
        let fail_run = || {
            let out = std::panic::catch_unwind(|| {
                scratch("tk::repro").cases(100).run(
                    &gen::vec_of(gen::i64_in(0, 9), 0, 8),
                    |v| {
                        prop_assert!(v.len() < 5, "len {}", v.len());
                        Ok(())
                    },
                );
            });
            panic_message(out.expect_err("property must fail"))
        };
        let a = fail_run();
        let b = fail_run();
        assert_eq!(a, b, "identical runs must fail identically");
        // Extract the reported seed and replay it as case zero.
        let seed_hex = a
            .split("seed 0x")
            .nth(1)
            .and_then(|r| r.get(..16))
            .expect("seed in message");
        let seed = u64::from_str_radix(seed_hex, 16).unwrap();
        let check = scratch("tk::repro_direct").cases(0);
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            check.run_case(
                &gen::vec_of(gen::i64_in(0, 9), 0, 8),
                &|v: &Vec<i64>| {
                    prop_assert!(v.len() < 5, "len {}", v.len());
                    Ok(())
                },
                seed,
                true,
            );
        }));
        let direct = panic_message(out.expect_err("replayed seed must fail"));
        let tail = |m: &str| m.split("minimal counterexample").nth(1).unwrap().to_string();
        assert_eq!(tail(&a), tail(&direct), "replay must shrink identically");
        clean("tk::repro");
        clean("tk::repro_direct");
    }

    #[test]
    fn parse_seed_formats() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed(" 0X10 "), Some(16));
        assert_eq!(parse_seed("zzz"), None);
    }
}
