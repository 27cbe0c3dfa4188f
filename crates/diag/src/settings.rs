//! One grammar for every setting a user types.
//!
//! `vpcec`'s flags, the `--faults` and `--recover` specs, jobfile
//! headers and records, the serve verbs and `.machine` sections all
//! read their settings through this module:
//!
//! * one argv walker ([`walk`]) over a table of [`Flag`] rows, each
//!   declaring its name, value, modes and help line;
//! * one tokenizer ([`key_value`], [`pairs`], [`list`]) for `k=v[,k=v]`
//!   lists and whitespace-separated records, with one duplicate rule
//!   ([`Seen`]): a key given twice is refused, never last-wins;
//! * one set of typed value parsers ([`rate`], [`seconds`],
//!   [`positive`], [`fraction`], [`factor`], [`count`], [`number`], [`boolean`],
//!   [`choice`]) that turn hostile text — `nan`, `inf`, `-1`, `1e400`,
//!   an empty value, 2⁶⁴ — into a refusal, never a panic or a clamp.
//!
//! A spec surface whose keys map onto fields declares them once as
//! [`Row`]s; the same rows parse ([`apply`]), write the canonical record
//! ([`record`]) and print the help ([`help`]), so no key is spelled
//! twice. Each surface maps a [`Refusal`] onto its own stable code.

use std::fmt;
use std::str::FromStr;

/// Why a setting was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// An item that is not `key=value`.
    NotKeyValue,
    /// A key given twice.
    Repeated,
    /// A key the surface does not declare.
    Unknown,
    /// A value of the wrong type or outside its range.
    BadValue,
}

/// A refused setting: why, which key, and a one-line detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettingError {
    pub refusal: Refusal,
    pub key: String,
    pub detail: String,
}

impl SettingError {
    pub fn new(refusal: Refusal, key: &str, detail: impl Into<String>) -> Self {
        SettingError {
            refusal,
            key: key.to_string(),
            detail: detail.into(),
        }
    }

    /// `key`'s value failed its parser, which said `why`.
    pub fn bad_value(key: &str, why: impl fmt::Display) -> Self {
        SettingError::new(Refusal::BadValue, key, format!("`{key}` {why}"))
    }
}

impl fmt::Display for SettingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Split one `key=value` item at its first `=`, both sides trimmed.
pub fn key_value(item: &str) -> Result<(&str, &str), SettingError> {
    match item.find('=') {
        Some(at) => Ok((item[..at].trim(), item[at + 1..].trim())),
        None => Err(SettingError::new(
            Refusal::NotKeyValue,
            item,
            format!("expected key=value, got `{item}`"),
        )),
    }
}

/// The items of a comma list, trimmed, empty ones skipped.
pub fn list(s: &str) -> impl Iterator<Item = &str> {
    s.split(',').map(str::trim).filter(|i| !i.is_empty())
}

/// The keys one surface has read so far: the one duplicate rule. Keys
/// compare ignoring ASCII case, so `param:n` repeats `param:N`.
#[derive(Debug, Clone, Default)]
pub struct Seen(Vec<String>);

impl Seen {
    /// Record `key`; a key read before is a [`Refusal::Repeated`].
    pub fn insert(&mut self, key: &str) -> Result<(), SettingError> {
        if self.0.iter().any(|k| k.eq_ignore_ascii_case(key)) {
            return Err(SettingError::new(
                Refusal::Repeated,
                key,
                format!("duplicate key `{key}`: give each setting once"),
            ));
        }
        self.0.push(key.to_string());
        Ok(())
    }
}

/// Tokenize `items` into `(key, value)` pairs, refusing an item that
/// is not `key=value` and a repeated key.
pub fn pairs<'a>(
    items: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<(&'a str, &'a str)>, SettingError> {
    let mut seen = Seen::default();
    items
        .into_iter()
        .map(|item| {
            let (k, v) = key_value(item)?;
            seen.insert(k)?;
            Ok((k, v))
        })
        .collect()
}

fn real(v: &str, ok: impl Fn(f64) -> bool, want: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && ok(x) => Ok(x),
        _ => Err(format!("needs {want}, got `{v}`")),
    }
}

/// A probability in `[0, 1]`.
pub fn rate(v: &str) -> Result<f64, String> {
    real(v, |x| (0.0..=1.0).contains(&x), "a rate in [0, 1]")
}

/// Finite, non-negative seconds.
pub fn seconds(v: &str) -> Result<f64, String> {
    real(v, |x| x >= 0.0, "finite non-negative seconds")
}

/// A finite positive real.
pub fn positive(v: &str) -> Result<f64, String> {
    real(v, |x| x > 0.0, "a finite positive number")
}

/// A fraction in `(0, 1]`.
pub fn fraction(v: &str) -> Result<f64, String> {
    real(v, |x| x > 0.0 && x <= 1.0, "a fraction in (0, 1]")
}

/// A finite multiplier of at least 1.
pub fn factor(v: &str) -> Result<f64, String> {
    real(v, |x| x >= 1.0, "a finite factor of at least 1")
}

/// Any integer of `T`.
pub fn number<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("needs an integer, got `{v}`"))
}

/// An integer of at least 1.
pub fn count<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(format!("needs a count of at least 1, got `{v}`")),
    }
}

/// `true` or `false`.
pub fn boolean(v: &str) -> Result<bool, String> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(format!("needs `true` or `false`, got `{v}`")),
    }
}

/// One of `all`, by the name `name` gives it: the inverse of an
/// enum's `name`.
pub fn choice<T: Copy>(v: &str, all: &[T], name: fn(T) -> &'static str) -> Result<T, String> {
    all.iter().copied().find(|&t| name(t) == v).ok_or_else(|| {
        let names: Vec<&str> = all.iter().map(|&t| name(t)).collect();
        format!("needs one of {}, got `{v}`", names.join("|"))
    })
}

/// One declared key of a spec surface.
pub struct Row<T> {
    pub key: &'static str,
    pub help: &'static str,
    /// Read a value into the spec (`Err` says what it needs).
    pub set: fn(&mut T, &str) -> Result<(), String>,
    /// The value as the canonical record writes it.
    pub get: fn(&T) -> String,
}

/// Read `key=value` items into `spec` through `rows`: the one
/// tokenizer and duplicate rule; an undeclared key is refused.
pub fn apply<'a, T>(
    rows: &[Row<T>],
    spec: &mut T,
    items: impl IntoIterator<Item = &'a str>,
) -> Result<(), SettingError> {
    for (key, value) in pairs(items)? {
        let row = rows.iter().find(|r| r.key == key).ok_or_else(|| {
            SettingError::new(Refusal::Unknown, key, format!("unknown key `{key}`"))
        })?;
        (row.set)(spec, value).map_err(|why| SettingError::bad_value(key, why))?;
    }
    Ok(())
}

/// The canonical record of `spec`: `key=value` for every row whose
/// value differs from `base`'s, in table order.
pub fn record<T>(rows: &[Row<T>], spec: &T, base: &T) -> Vec<String> {
    rows.iter()
        .filter(|r| (r.get)(spec) != (r.get)(base))
        .map(|r| format!("{}={}", r.key, (r.get)(spec)))
        .collect()
}

/// One indented help line per row: `key` and what it sets.
pub fn help<T>(rows: &[Row<T>]) -> String {
    let width = rows.iter().map(|r| r.key.len()).max().unwrap_or(0);
    rows.iter().map(|r| format!("  {:width$}  {}\n", r.key, r.help)).collect()
}

/// One command-line flag: its name, its operand (`None` for a switch),
/// the modes it applies to (a bit set over the surface's modes), its
/// help text, and how it is read into the parsed arguments.
pub struct Flag<T> {
    pub name: &'static str,
    pub operand: Option<&'static str>,
    pub modes: u8,
    /// May be given more than once (each `set` call checks its own
    /// repeat rule, as `--param` does per NAME).
    pub repeatable: bool,
    pub help: &'static str,
    /// Read the operand (`""` for a switch).
    pub set: fn(&mut T, &str) -> Result<(), String>,
}

/// Walk `argv` against `flags`: each flag read through its row, a
/// non-repeatable flag given twice refused, an unknown `-`-led word
/// refused. Returns the operands that are not flags and the table
/// index of every flag given, both in order.
pub fn walk<T>(
    flags: &[Flag<T>],
    argv: &[String],
    out: &mut T,
) -> Result<(Vec<String>, Vec<usize>), String> {
    let (mut positional, mut given) = (Vec::new(), Vec::new());
    let mut it = argv.iter();
    while let Some(word) = it.next() {
        let Some(i) = flags.iter().position(|f| f.name == word) else {
            // `-` alone names stdin, never a source file.
            if word.starts_with('-') {
                return Err(format!("unknown argument `{word}`"));
            }
            positional.push(word.clone());
            continue;
        };
        let flag = &flags[i];
        if given.contains(&i) && !flag.repeatable {
            return Err(format!("{} is given twice; give each flag once", flag.name));
        }
        let value = match flag.operand {
            Some(op) => it
                .next()
                .map(String::as_str)
                .ok_or(format!("{} needs {op}", flag.name))?,
            None => "",
        };
        (flag.set)(out, value).map_err(|why| format!("{} {why}", flag.name))?;
        given.push(i);
    }
    Ok((positional, given))
}

/// Refuse every flag in `given` that does not apply to `mode` (one bit
/// of the flags' `modes`), naming the modes it needs (`mode_names[b]`
/// for bit `b`).
pub fn check_modes<T>(
    flags: &[Flag<T>],
    given: &[usize],
    mode: u8,
    mode_names: &[&str],
) -> Result<(), String> {
    for &i in given {
        let flag = &flags[i];
        if flag.modes & mode == 0 {
            return Err(format!(
                "{} applies only to {} (this invocation: {})",
                flag.name,
                mode_list(flag.modes, mode_names),
                mode_list(mode, mode_names)
            ));
        }
    }
    Ok(())
}

/// `a`, `a or b`, `a, b or c` over the set bits of `modes`.
pub fn mode_list(modes: u8, mode_names: &[&str]) -> String {
    let names: Vec<&str> = (0..mode_names.len())
        .filter(|b| modes & (1 << b) != 0)
        .map(|b| mode_names[b])
        .collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
        _ => names.concat(),
    }
}

/// The help text of a flag table: one entry per flag, its help lines
/// aligned at column 23 and closed by the modes it applies to.
pub fn usage<T>(flags: &[Flag<T>], mode_names: &[&str]) -> String {
    let mut out = String::new();
    for f in flags {
        let mut head = format!("  {} {}", f.name, f.operand.unwrap_or_default());
        head.truncate(head.trim_end().len());
        if head.len() > 22 {
            out.push_str(&format!("{head}\n"));
            head.clear();
        }
        let modes = format!("[{}]", mode_list(f.modes, mode_names));
        for line in f.help.lines().chain([modes.as_str()]) {
            out.push_str(&format!("{head:22} {line}\n"));
            head.clear();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Spec {
        rate: f64,
        n: u32,
    }

    #[rustfmt::skip]
    const ROWS: &[Row<Spec>] = &[
        Row { key: "rate", help: "a rate",
              set: |s, v| rate(v).map(|x| s.rate = x), get: |s| s.rate.to_string() },
        Row { key: "n", help: "a count",
              set: |s, v| count(v).map(|x| s.n = x), get: |s| s.n.to_string() },
    ];

    #[test]
    fn rows_parse_record_and_refuse() {
        let mut s = Spec::default();
        apply(ROWS, &mut s, list("rate=0.5, n=3")).unwrap();
        assert_eq!(s, Spec { rate: 0.5, n: 3 });
        assert_eq!(record(ROWS, &s, &Spec::default()), ["rate=0.5", "n=3"]);
        for (line, refusal) in [
            ("rate=0.5,rate=0.5", Refusal::Repeated),
            ("rate=0.5,RATE=0.5", Refusal::Repeated),
            ("rate", Refusal::NotKeyValue),
            ("speed=1", Refusal::Unknown),
            ("rate=nan", Refusal::BadValue),
            ("rate=-0.1", Refusal::BadValue),
            ("n=0", Refusal::BadValue),
            ("n=18446744073709551616", Refusal::BadValue),
            ("n=", Refusal::BadValue),
        ] {
            let e = apply(ROWS, &mut Spec::default(), list(line)).unwrap_err();
            assert_eq!(e.refusal, refusal, "{line}: {e}");
        }
        assert_eq!(help(ROWS), "  rate  a rate\n  n     a count\n");
    }

    #[test]
    fn value_parsers_refuse_hostile_text() {
        for v in ["nan", "NaN", "inf", "-inf", "1e400", "-1", "", " "] {
            assert!(seconds(v).is_err(), "{v}");
            assert!(positive(v).is_err(), "{v}");
            assert!(factor(v).is_err(), "{v}");
        }
        assert_eq!(seconds("0"), Ok(0.0));
        assert!(positive("0").is_err() && factor("0.5").is_err());
        assert_eq!(fraction("1"), Ok(1.0));
        assert!(fraction("0").is_err() && fraction("1.5").is_err());
        assert_eq!(number::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert!(number::<u64>("18446744073709551616").is_err());
        assert_eq!(boolean("true"), Ok(true));
        assert!(boolean("yes").is_err());
        let e = choice("huge", &[1u8, 2], |n| if n == 1 { "one" } else { "two" }).unwrap_err();
        assert_eq!(e, "needs one of one|two, got `huge`");
    }

    #[test]
    fn the_walker_refuses_repeats_and_strangers() {
        #[derive(Default)]
        struct Args {
            n: usize,
            on: bool,
        }
        #[rustfmt::skip]
        let flags: &[Flag<Args>] = &[
            Flag { name: "--n", operand: Some("N"), modes: 1, repeatable: false, help: "n",
                   set: |a, v| number(v).map(|x| a.n = x) },
            Flag { name: "--on", operand: None, modes: 2, repeatable: false, help: "on",
                   set: |a, _| { a.on = true; Ok(()) } },
        ];
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let mut a = Args::default();
        let (positional, given) = walk(flags, &argv("x --n 3 --on"), &mut a).unwrap();
        assert_eq!(
            (a.n, a.on, positional, given),
            (3, true, vec!["x".to_string()], vec![0, 1])
        );
        let e = walk(flags, &argv("--n 2 --n 8"), &mut Args::default()).unwrap_err();
        assert_eq!(e, "--n is given twice; give each flag once");
        assert!(walk(flags, &argv("--n"), &mut Args::default()).is_err());
        assert!(walk(flags, &argv("--n x"), &mut Args::default()).is_err());
        assert!(walk(flags, &argv("--m"), &mut Args::default()).is_err());
        let names = ["run", "lint"];
        let e = check_modes(flags, &[1], 1, &names).unwrap_err();
        assert_eq!(e, "--on applies only to lint (this invocation: run)");
        assert_eq!(mode_list(0b111, &["a", "b", "c"]), "a, b or c");
    }
}
