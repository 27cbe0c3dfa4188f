//! The `.machine` parser: sections of `key = value` lines, `#`
//! comments, and one `include =` layering directive.
//!
//! Layering model (the sesc `.conf` idiom): every file is a set of
//! *overrides* on a base description. The base is the built-in
//! `paper` preset unless the file's first directive is
//! `include = NAME`, which swaps in a built-in preset or another
//! file (resolved by the caller-supplied loader — the library itself
//! never touches the filesystem). Later keys override earlier ones,
//! so `parse(spec.dump())` round-trips exactly.

// `seconds` is the finite non-negative parser: every time, delay and
// cap of the format reads through it.
use vpce_diag::settings::{
    self, boolean, choice, count, fraction, number, positive, seconds as nonneg, Row, Seen,
};

use crate::spec::{MachineSpec, Signalling, TopoKind};
use crate::{MachineCode, MachineError};

/// Maximum include nesting before the parser declares a cycle.
const MAX_INCLUDE_DEPTH: usize = 8;

/// Resolves an `include =` operand that is not a built-in preset name
/// to the text of another machine file. Returning `Err` makes the
/// include fail with VPCE504 carrying the message.
pub type IncludeLoader<'a> = dyn FnMut(&str) -> Result<String, String> + 'a;

/// Parse a self-contained machine description: built-in includes work,
/// file includes are rejected (the loader that refuses everything).
pub fn parse(text: &str) -> Result<MachineSpec, MachineError> {
    parse_layered(text, &mut |path: &str| {
        Err(format!("no include loader available for `{path}`"))
    })
}

/// Parse a machine description, resolving file includes through
/// `loader`.
pub fn parse_layered(text: &str, loader: &mut IncludeLoader) -> Result<MachineSpec, MachineError> {
    let mut spec = MachineSpec::paper();
    parse_into(&mut spec, text, loader, 0)?;
    Ok(spec)
}

/// Resolve an include operand: built-in preset name first, then the
/// loader; a loaded file is parsed with the same recursive rules.
fn resolve_include(
    name: &str,
    loader: &mut IncludeLoader,
    depth: usize,
    line: usize,
) -> Result<MachineSpec, MachineError> {
    if depth > MAX_INCLUDE_DEPTH {
        let detail = format!("include nesting exceeds {MAX_INCLUDE_DEPTH} (cycle?)");
        return Err(err(MachineCode::BadInclude, line, "include", detail));
    }
    if let Some(spec) = MachineSpec::builtin(name) {
        return Ok(spec);
    }
    let text = loader(name).map_err(|e| {
        let detail = format!("cannot resolve include `{name}`: {e}");
        err(MachineCode::BadInclude, line, "include", detail)
    })?;
    let mut spec = MachineSpec::paper();
    parse_into(&mut spec, &text, loader, depth)?;
    Ok(spec)
}

/// One `[section]` of the format: its name and its keys, in dump
/// order.
#[derive(Clone, Copy)]
pub struct Section {
    pub name: &'static str,
    pub rows: &'static [Row<MachineSpec>],
}

/// A key whose value is the spec field `$($f).+`, read by `$parse`
/// (which holds the value's range) and dumped through `Display`.
macro_rules! row {
    ($key:literal, $parse:expr, $($f:ident).+) => {
        Row {
            key: $key,
            help: "",
            set: |m, v| $parse(v).map(|x| m.$($f).+ = x),
            get: |m| m.$($f).+.to_string(),
        }
    };
}

/// Every key of the format, one row each, by section in dump order:
/// the parser looks a key up here and [`MachineSpec::dump`] walks it.
#[rustfmt::skip]
pub const SECTIONS: &[Section] = &[
    Section { name: "machine", rows: &[
        row!("name", |v: &str| Ok::<_, String>(v.to_string()), name),
    ] },
    Section { name: "cpu", rows: &[
        row!("clock_hz", positive, node.cpu.clock_hz),
        row!("cyc_fadd", positive, node.cpu.cyc_fadd),
        row!("cyc_fmul", positive, node.cpu.cyc_fmul),
        row!("cyc_fdiv", positive, node.cpu.cyc_fdiv),
        row!("cyc_transcendental", positive, node.cpu.cyc_transcendental),
        row!("cyc_load", positive, node.cpu.cyc_load),
        row!("cyc_store", positive, node.cpu.cyc_store),
        row!("cyc_int", positive, node.cpu.cyc_int),
        row!("cyc_loop", positive, node.cpu.cyc_loop),
        row!("memcpy_bps", positive, node.cpu.memcpy_bps),
    ] },
    Section { name: "nic", rows: &[
        row!("post_s", nonneg, node.nic.post_s),
        row!("dma_setup_s", nonneg, node.nic.dma_setup_s),
        row!("pio_per_elem_s", nonneg, node.nic.pio_per_elem_s),
        row!("shared_queue", boolean, node.nic.shared_queue),
        row!("context_switch_s", nonneg, node.nic.context_switch_s),
        row!("staging_copy_bps", positive, node.nic.staging_copy_bps),
        row!("driver_buf_bytes", count, node.nic.driver_buf_bytes),
        row!("eager_slots", count, node.nic.eager_slots),
        row!("eager_slot_bytes", count, node.nic.eager_slot_bytes),
        row!("ring_depth", count, node.nic.ring_depth),
        row!("ring_entry_s", nonneg, node.nic.ring_entry_s),
    ] },
    Section { name: "link", rows: &[
        row!("signalling", |v| choice(v, &Signalling::ALL, Signalling::name), link.signalling),
        row!("width_bits", count, link.width_bits),
        row!("line_delay_min_ps", positive, link.line_delay_min_ps),
        row!("line_delay_spread_ps", nonneg, link.line_delay_spread_ps),
        row!("settle_ps", nonneg, link.settle_ps),
        row!("jitter_ps", nonneg, link.jitter_ps),
        row!("sample_window_ps", nonneg, link.sample_window_ps),
        row!("wave_margin", positive, link.wave_margin),
        row!("budget_hops", count, link.budget_hops),
        row!("router_delay_s", nonneg, link.router_delay_s),
        row!("raw_bandwidth_bps", positive, link.raw.bandwidth_bps),
        row!("raw_per_hop_s", nonneg, link.raw.per_hop_s),
        // `0` is no cap.
        Row { key: "derate_bandwidth_bps", help: "",
              set: |m, v| nonneg(v).map(|x| m.link.derate_bandwidth_bps = (x > 0.0).then_some(x)),
              get: |m| m.link.derate_bandwidth_bps.unwrap_or_default().to_string() },
    ] },
    Section { name: "bus", rows: &[
        row!("enabled", boolean, bus_enabled),
        row!("arbitration_s", nonneg, bus.arbitration_s),
        row!("per_node_config_s", nonneg, bus.per_node_config_s),
        row!("bandwidth_derate", fraction, bus.bandwidth_derate),
    ] },
    Section { name: "node", rows: &[
        row!("mem_bytes", count, node.mem_bytes),
    ] },
    Section { name: "topology", rows: &[
        row!("kind", |v| choice(v, &TopoKind::ALL, TopoKind::name), topology.kind),
        row!("dim_x", number, topology.dim_x),
        row!("dim_y", number, topology.dim_y),
        row!("dim_z", number, topology.dim_z),
        row!("pods", number, topology.pods),
    ] },
];

fn parse_into(
    spec: &mut MachineSpec,
    text: &str,
    loader: &mut IncludeLoader,
    depth: usize,
) -> Result<(), MachineError> {
    let mut section = SECTIONS[0];
    let mut saw_setting = false;
    // Every `[section] key` of this file, once: a later file layer
    // overrides an included one, a repeat within one file is refused.
    let mut seen = Seen::default();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        if let Some(rest) = content.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(bad_line(line, content, "unterminated section header"));
            };
            let name = name.trim();
            section = choice(name, SECTIONS, |s| s.name).map_err(|why| {
                err(MachineCode::UnknownSection, line, name, format!("section {why}"))
            })?;
            continue;
        }
        let Ok((key, value)) = settings::key_value(content) else {
            return Err(bad_line(line, content, "expected `key = value` or `[section]`"));
        };
        let section_name = section.name;
        seen.insert(&format!("[{section_name}] {key}")).map_err(|_| {
            let detail = format!("`{key}` is set twice in [{section_name}]: give each once");
            err(MachineCode::DuplicateKey, line, key, detail)
        })?;
        if key == "include" {
            let misplaced = if section.name != SECTIONS[0].name {
                "include belongs at the top (the [machine] section)"
            } else if saw_setting {
                "include must precede every other setting"
            } else {
                ""
            };
            if !misplaced.is_empty() {
                return Err(err(MachineCode::BadInclude, line, key, misplaced));
            }
            *spec = resolve_include(value, loader, depth + 1, line)?;
            saw_setting = true;
            continue;
        }
        saw_setting = true;
        let Some(row) = section.rows.iter().find(|r| r.key == key) else {
            let detail = format!("unknown key `{key}` in section [{section_name}]");
            return Err(err(MachineCode::UnknownKey, line, key, detail));
        };
        (row.set)(spec, value)
            .map_err(|why| err(MachineCode::BadValue, line, key, format!("`{key}` {why}")))?;
    }
    Ok(())
}

fn err(code: MachineCode, line: usize, key: &str, detail: impl Into<String>) -> MachineError {
    MachineError { code, line, key: key.to_string(), detail: detail.into() }
}

fn bad_line(line: usize, content: &str, why: &str) -> MachineError {
    err(MachineCode::BadLine, line, "", format!("{why}: `{content}`"))
}
