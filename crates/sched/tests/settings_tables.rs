//! Every settings surface against the one grammar: `parse ∘ to_record`
//! is the identity on generated `FaultSpec`, `RecoverSpec`, `JobSpec`,
//! `StormSpec`, `TenantSpec` and `MachineSpec::dump`, and a line built
//! from a table's keys with hostile values — `nan`, `inf`, `-1`,
//! `1e400`, empty, 2⁶⁴, a repeated key — parses to a spec inside its
//! ranges or a typed refusal, never a panic.

use vpce_diag::settings::Row;
use vpce_faults::{FaultSpec, FaultSpecCode, FAULT_KEYS};
use vpce_machine::parse::SECTIONS;
use vpce_machine::{MachineCode, MachineSpec, Signalling, TopoKind};
use vpce_recover::{RecoverSpec, RECOVER_KEYS};
use vpce_sched::{BatchSpec, JobSource, JobSpec, JobfileCode, StormSpec, TenantSpec};
use vpce_testkit::prelude::*;

const HOSTILE: [&str; 12] = [
    "nan",
    "NaN",
    "inf",
    "-inf",
    "-1",
    "1e400",
    "",
    "18446744073709551616",
    "0",
    "-0",
    "x",
    "1e-400",
];

fn hostile() -> Gen<&'static str> {
    elem_of(HOSTILE.to_vec())
}

fn word() -> Gen<String> {
    vec_of(elem_of(b"abcxyz019_-".to_vec()), 1, 6).map(|b| String::from_utf8(b).unwrap())
}

fn rate() -> Gen<f64> {
    one_of(vec![just(0.0), just(1.0), f64_in(0.0, 1.0)])
}

fn fault_spec() -> Gen<FaultSpec> {
    let rates = vec_of(rate(), 9, 9);
    let delays = vec_of(f64_in(0.0, 1e-3), 3, 3);
    let counts = zip3(u64_in(0, u64::MAX - 1), u32_in(1, 9), u32_in(0, 20));
    zip3(rates, zip2(delays, f64_in(1.0, 8.0)), counts).map(
        |(r, (d, slow_factor), (seed, bus_attempts, max_retries))| FaultSpec {
            seed,
            flit_corrupt: r[0],
            link_drop: r[1],
            link_stall: r[2],
            stall_s: d[0],
            bus_fail: r[3],
            bus_attempts,
            dma_err: r[4],
            pio_err: r[5],
            nic_stall: r[6],
            nic_stall_s: d[1],
            rank_slow: r[7],
            slow_factor,
            rank_crash: r[8],
            max_retries,
            backoff_base_s: d[2],
        },
    )
}

fn recover_spec() -> Gen<RecoverSpec> {
    zip4(
        usize_in(1, 8),
        usize_in(0, 8),
        usize_in(1, 4),
        usize_in(0, 32),
    )
    .map(|(interval, spares, buddies, rollbacks)| RecoverSpec {
        interval,
        spares,
        buddies,
        rollbacks,
    })
}

fn job_spec() -> Gen<JobSpec> {
    let source = one_of(vec![
        word().map(JobSource::Workload),
        word().map(JobSource::Path),
        string_printable(0, 24).map(JobSource::Inline),
    ]);
    let who = zip3(word(), word(), source);
    let when = zip4(
        usize_in(1, 16),
        i64_in(-9, 9),
        f64_in(0.0, 1.0),
        one_of(vec![just(None), f64_in(0.0, 1.0).map(Some)]),
    );
    let params = vec_of(bool_any(), 3, 3).flat_map(|on| {
        let names: Vec<&str> = ["N", "M", "K"]
            .into_iter()
            .zip(on)
            .filter(|(_, on)| *on)
            .map(|(n, _)| n)
            .collect();
        vec_of(i64_in(-99, 99), names.len(), names.len()).map(move |vs| {
            names
                .iter()
                .map(|n| n.to_string())
                .zip(vs)
                .collect::<Vec<_>>()
        })
    });
    let grain = one_of(vec![
        just(None),
        elem_of(lmad::Granularity::ALL.to_vec()).map(Some),
    ]);
    let recover = one_of(vec![just(None), recover_spec().map(Some)]);
    let machine = one_of(vec![
        just(None),
        elem_of(MachineSpec::BUILTINS.to_vec()).map(|m| Some(m.to_string())),
    ]);
    let how = zip4(grain, fault_spec(), u32_in(0, 9), zip2(recover, machine));
    zip4(who, when, params, how).map(
        |(
            (name, tenant, source),
            (ranks, priority, arrival, deadline),
            params,
            (granularity, faults, retries, (recover, machine)),
        )| {
            JobSpec {
                tenant,
                priority,
                arrival,
                deadline,
                params,
                granularity,
                faults,
                retries,
                recover,
                machine,
                ..JobSpec::new(name, source, ranks)
            }
        },
    )
}

#[test]
fn fault_and_recover_specs_round_trip() {
    check("settings::fault_spec_round_trip", &fault_spec(), |spec| {
        let rec = spec.to_record();
        prop_assert_eq!(FaultSpec::parse(&rec), Ok(spec.clone()));
        Ok(())
    });
    check(
        "settings::recover_spec_round_trip",
        &recover_spec(),
        |spec| {
            let rec = spec.to_record();
            prop_assert_eq!(RecoverSpec::parse(&rec), Ok(spec.clone()));
            Ok(())
        },
    );
}

#[test]
fn jobfile_records_round_trip() {
    check("settings::job_record_round_trip", &job_spec(), |job| {
        let parsed =
            BatchSpec::parse(&job.to_record()).map_err(|e| PropError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed.jobs, &vec![job.clone()]);
        Ok(())
    });
    let storm = zip4(
        job_spec(),
        usize_in(1, 9),
        f64_in(1e-6, 1.0),
        f64_in(0.0, 1.0),
    )
    .map(|(template, count, mean_gap_s, start_s)| StormSpec {
        prefix: template.name.clone(),
        count,
        mean_gap_s,
        start_s,
        template: JobSpec {
            arrival: start_s,
            ..template
        },
    });
    check("settings::storm_record_round_trip", &storm, |storm| {
        let parsed =
            BatchSpec::parse(&storm.to_record()).map_err(|e| PropError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed.storms, &vec![storm.clone()]);
        Ok(())
    });
    let tenant = zip3(
        word(),
        f64_in(1e-3, 64.0),
        one_of(vec![just(None), usize_in(1, 64).map(Some)]),
    )
    .map(|(name, share, quota)| TenantSpec { name, share, quota });
    check("settings::tenant_record_round_trip", &tenant, |t| {
        let parsed =
            BatchSpec::parse(&t.to_record()).map_err(|e| PropError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed.tenants, &vec![t.clone()]);
        Ok(())
    });
}

/// Every `[section] key` row of the machine format, in dump order.
fn machine_rows() -> impl Iterator<Item = (&'static str, &'static Row<MachineSpec>)> {
    SECTIONS
        .iter()
        .flat_map(|s| s.rows.iter().map(move |r| (s.name, r)))
}

/// A value some row of the machine format may take: a fraction, a
/// real, a count, a flag, a choice name or a word.
fn machine_value() -> Gen<String> {
    let names = Signalling::ALL.iter().map(|s| s.name());
    let names: Vec<&str> = names
        .chain(TopoKind::ALL.iter().map(|k| k.name()))
        .collect();
    one_of(vec![
        f64_in(0.0, 1.0).map(|x| x.to_string()),
        f64_in(1.0, 1e9).map(|x| x.to_string()),
        usize_in(0, 1 << 30).map(|n| n.to_string()),
        elem_of(vec!["true", "false"]).map(String::from),
        elem_of(names).map(String::from),
        word(),
    ])
}

#[test]
fn machine_dumps_round_trip() {
    // Each kind of value the generator draws moves every row somewhere.
    let kinds = ["0.5", "7", "false", "wave", "torus3d", "abc"];
    for (section, row) in machine_rows() {
        let paper = MachineSpec::paper();
        let moves = kinds.iter().any(|v| {
            let mut m = paper.clone();
            (row.set)(&mut m, v).is_ok() && m != paper
        });
        assert!(moves, "no drawn value moves [{section}] {}", row.key);
    }
    let rows = machine_rows().count();
    let spec = zip2(
        elem_of(MachineSpec::BUILTINS.to_vec()),
        vec_of(machine_value(), rows, rows),
    );
    check(
        "settings::machine_dump_round_trip",
        &spec,
        |(base, values)| {
            let mut m = MachineSpec::builtin(base).expect("a built-in name");
            for ((_, row), v) in machine_rows().zip(values) {
                // A value the row's own parser refuses leaves the preset's.
                let _ = (row.set)(&mut m, v);
            }
            prop_assert_eq!(vpce_machine::parse(&m.dump()), Ok(m.clone()));
            Ok(())
        },
    );
}

/// Items of hostile values for a table's keys, and whether the first
/// is repeated at the end.
type Hostile = (Vec<(&'static str, &'static str)>, bool);

fn hostile_items(keys: Vec<&'static str>) -> Gen<Hostile> {
    zip2(vec_of(zip2(elem_of(keys), hostile()), 1, 3), bool_any())
}

/// The items as `key=value` tokens, the repeat appended.
fn tokens((items, repeat): &Hostile) -> Vec<String> {
    let mut toks: Vec<String> = items.iter().map(|(k, v)| format!("{k}={v}")).collect();
    if *repeat {
        toks.push(toks[0].clone());
    }
    toks
}

/// Whether some key of the items appears twice.
fn repeats((items, repeat): &Hostile) -> bool {
    *repeat
        || items
            .iter()
            .enumerate()
            .any(|(i, (k, _))| items[..i].iter().any(|(j, _)| j == k))
}

#[test]
fn hostile_fault_and_recover_values_are_refused_or_in_range() {
    let keys: Vec<&str> = FAULT_KEYS.iter().map(|r| r.key).collect();
    check("settings::hostile_faults", &hostile_items(keys), |line| {
        match FaultSpec::parse(&tokens(line).join(",")) {
            Ok(s) => {
                let delays = [s.stall_s, s.nic_stall_s, s.backoff_base_s];
                prop_assert!(delays.iter().all(|d| d.is_finite() && *d >= 0.0), "{s:?}");
                prop_assert!(s.slow_factor.is_finite() && s.slow_factor >= 1.0, "{s:?}");
                prop_assert!(s.bus_attempts >= 1, "{s:?}");
                prop_assert!(!repeats(line), "a repeated key parsed: {line:?}");
            }
            Err(e) if e.code == FaultSpecCode::DuplicateKey => prop_assert!(repeats(line), "{e}"),
            Err(_) => {}
        }
        Ok(())
    });
    let keys: Vec<&str> = RECOVER_KEYS.iter().map(|r| r.key).collect();
    check("settings::hostile_recover", &hostile_items(keys), |line| {
        if let Ok(s) = RecoverSpec::parse(&tokens(line).join(",")) {
            prop_assert!(s.interval >= 1 && s.buddies >= 1 && !repeats(line), "{s:?}");
        }
        Ok(())
    });
}

#[test]
fn hostile_jobfile_lines_are_typed_refusals() {
    let header = ["nodes", "policy", "seed", "machine", "probation"];
    let record = [
        "name", "tenant", "workload", "ranks", "arrive", "prio", "deadline", "grain", "faults",
        "retries", "recover", "machine", "param:N", "count", "mean-gap", "share", "quota",
    ];
    let line = zip4(
        elem_of(vec!["job", "storm", "tenant", ""]),
        hostile_items(record.to_vec()),
        elem_of(header.to_vec()),
        hostile(),
    );
    check(
        "settings::hostile_jobfile",
        &line,
        |(head, items, hk, hv)| {
            let prefix = match *head {
                "job" => "job name=j workload=mm ranks=1",
                "storm" => "storm prefix=j workload=mm ranks=1 count=1",
                _ => "tenant name=t",
            };
            let text = if head.is_empty() {
                format!("{hk}={hv}\n{hk}={hv}\n")
            } else {
                format!("{prefix} {}\n", tokens(items).join(" "))
            };
            match BatchSpec::parse(&text) {
                Ok(spec) => {
                    for j in spec
                        .jobs
                        .iter()
                        .chain(spec.storms.iter().map(|s| &s.template))
                    {
                        prop_assert!(j.arrival.is_finite() && j.arrival >= 0.0, "{text}");
                        prop_assert!(
                            j.deadline.is_none_or(|d| d.is_finite() && d >= 0.0),
                            "{text}"
                        );
                    }
                    for s in &spec.storms {
                        prop_assert!(s.mean_gap_s.is_finite() && s.mean_gap_s > 0.0, "{text}");
                    }
                    for t in &spec.tenants {
                        prop_assert!(t.share.is_finite() && t.share > 0.0, "{text}");
                    }
                    prop_assert!(!items.1, "a repeated key parsed: {text}");
                }
                Err(e) => {
                    if head.is_empty() {
                        let first = BatchSpec::parse(&format!("{hk}={hv}\n"));
                        let code = first.map_or_else(|e| e.code, |_| JobfileCode::DuplicateKey);
                        prop_assert_eq!(e.code, code, "{text}: {e}");
                    }
                }
            }
            Ok(())
        },
    );
}

/// A description that parses lowers at 1, 4 and 8 nodes to a machine
/// or to a typed VPCE505 — never a panic, never another code.
fn lowers_or_vpce505(m: &MachineSpec) -> Result<(), String> {
    for n in [1, 4, 8] {
        match m.lower(n) {
            Err(e) if e.code != MachineCode::BadTopology => return Err(format!("{n}: {e}")),
            _ => {}
        }
    }
    Ok(())
}

#[test]
fn hostile_machine_values_are_typed_refusals() {
    let keys: Vec<(&str, &str)> = machine_rows().map(|(s, r)| (s, r.key)).collect();
    assert_eq!(keys.len(), 45, "one row per .machine key");
    let gen = zip3(elem_of(keys), hostile(), bool_any());
    check(
        "settings::hostile_machine",
        &gen,
        |((section, key), v, repeat)| {
            let mut text = format!("[{section}]\n{key} = {v}\n");
            if *repeat {
                text.push_str(&format!("{key} = {v}\n"));
            }
            match vpce_machine::parse(&text) {
                Ok(m) => {
                    prop_assert!(!*repeat, "a repeated key parsed: {m:?}");
                    lowers_or_vpce505(&m).map_err(|e| PropError::fail(format!("{text}{e}")))?;
                }
                Err(e)
                    if *repeat
                        && vpce_machine::parse(&format!("[{section}]\n{key} = {v}\n")).is_ok() =>
                {
                    prop_assert_eq!(e.code, MachineCode::DuplicateKey, "{text}");
                }
                Err(_) => {}
            }
            Ok(())
        },
    );
    // One value in every key of a section that takes it, on every
    // preset: 2²² in each torus3d dim is a cell count past 2⁶⁴.
    for base in MachineSpec::BUILTINS {
        for section in SECTIONS {
            for v in HOSTILE.iter().chain(&["4194304"]) {
                let mut text = format!("include = {base}\n[{}]\n", section.name);
                for row in section.rows {
                    if (row.set)(&mut MachineSpec::paper(), v).is_ok() {
                        text.push_str(&format!("{} = {v}\n", row.key));
                    }
                }
                let m = vpce_machine::parse(&text).unwrap_or_else(|e| panic!("{text}{e}"));
                lowers_or_vpce505(&m).unwrap_or_else(|e| panic!("{text}{e}"));
            }
        }
    }
}
