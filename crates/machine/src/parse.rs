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

use vpce_diag::settings::{self, Seen};

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

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Machine,
    Cpu,
    Nic,
    Link,
    Bus,
    Node,
    Topology,
}

impl Section {
    const ALL: [Section; 7] = [
        Section::Machine,
        Section::Cpu,
        Section::Nic,
        Section::Link,
        Section::Bus,
        Section::Node,
        Section::Topology,
    ];

    fn name(self) -> &'static str {
        match self {
            Section::Machine => "machine",
            Section::Cpu => "cpu",
            Section::Nic => "nic",
            Section::Link => "link",
            Section::Bus => "bus",
            Section::Node => "node",
            Section::Topology => "topology",
        }
    }
}

fn parse_into(
    spec: &mut MachineSpec,
    text: &str,
    loader: &mut IncludeLoader,
    depth: usize,
) -> Result<(), MachineError> {
    let mut section = Section::Machine;
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
            section = settings::choice(name, &Section::ALL, Section::name).map_err(|why| {
                err(MachineCode::UnknownSection, line, name, format!("section {why}"))
            })?;
            continue;
        }
        let Ok((key, value)) = settings::key_value(content) else {
            return Err(bad_line(line, content, "expected `key = value` or `[section]`"));
        };
        let section_name = section.name();
        seen.insert(&format!("[{section_name}] {key}")).map_err(|_| {
            let detail = format!("`{key}` is set twice in [{section_name}]: give each once");
            err(MachineCode::DuplicateKey, line, key, detail)
        })?;
        if key == "include" {
            let misplaced = if section != Section::Machine {
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
        apply(spec, section, key, value).map_err(|(code, detail)| err(code, line, key, detail))?;
    }
    Ok(())
}

fn err(code: MachineCode, line: usize, key: &str, detail: impl Into<String>) -> MachineError {
    MachineError { code, line, key: key.to_string(), detail: detail.into() }
}

fn bad_line(line: usize, content: &str, why: &str) -> MachineError {
    err(MachineCode::BadLine, line, "", format!("{why}: `{content}`"))
}

/// Read one `key = value` of `section` into `spec`: an unknown key is
/// VPCE502, a value its parser refuses VPCE503.
fn apply(
    spec: &mut MachineSpec,
    section: Section,
    key: &str,
    v: &str,
) -> Result<(), (MachineCode, String)> {
    use settings::{boolean, count, number, positive, seconds as nonneg};
    let unknown = || {
        let detail = format!("unknown key `{key}` in section [{}]", section.name());
        (MachineCode::UnknownKey, detail)
    };
    let r = match section {
        Section::Machine => match key {
            "name" => {
                spec.name = v.to_string();
                Ok(())
            }
            _ => return Err(unknown()),
        },
        Section::Cpu => {
            let c = &mut spec.cpu;
            match key {
                "clock_hz" => positive(v).map(|x| c.clock_hz = x),
                "cyc_fadd" => positive(v).map(|x| c.cyc_fadd = x),
                "cyc_fmul" => positive(v).map(|x| c.cyc_fmul = x),
                "cyc_fdiv" => positive(v).map(|x| c.cyc_fdiv = x),
                "cyc_transcendental" => positive(v).map(|x| c.cyc_transcendental = x),
                "cyc_load" => positive(v).map(|x| c.cyc_load = x),
                "cyc_store" => positive(v).map(|x| c.cyc_store = x),
                "cyc_int" => positive(v).map(|x| c.cyc_int = x),
                "cyc_loop" => positive(v).map(|x| c.cyc_loop = x),
                "memcpy_bps" => positive(v).map(|x| c.memcpy_bps = x),
                _ => return Err(unknown()),
            }
        }
        Section::Nic => {
            let n = &mut spec.nic;
            match key {
                "post_s" => nonneg(v).map(|x| n.post_s = x),
                "dma_setup_s" => nonneg(v).map(|x| n.dma_setup_s = x),
                "pio_per_elem_s" => nonneg(v).map(|x| n.pio_per_elem_s = x),
                "shared_queue" => boolean(v).map(|x| n.shared_queue = x),
                "context_switch_s" => nonneg(v).map(|x| n.context_switch_s = x),
                "staging_copy_bps" => positive(v).map(|x| n.staging_copy_bps = x),
                "driver_buf_bytes" => count(v).map(|x| n.driver_buf_bytes = x),
                "eager_slots" => count(v).map(|x| n.eager_slots = x),
                "eager_slot_bytes" => count(v).map(|x| n.eager_slot_bytes = x),
                "ring_depth" => count(v).map(|x| n.ring_depth = x),
                "ring_entry_s" => nonneg(v).map(|x| n.ring_entry_s = x),
                _ => return Err(unknown()),
            }
        }
        Section::Link => {
            let l = &mut spec.link;
            match key {
                "signalling" => settings::choice(v, &Signalling::ALL, Signalling::name)
                    .map(|x| l.signalling = x),
                "width_bits" => count(v).map(|x| l.width_bits = x),
                "line_delay_min_ps" => positive(v).map(|x| l.line_delay_min_ps = x),
                "line_delay_spread_ps" => nonneg(v).map(|x| l.line_delay_spread_ps = x),
                "settle_ps" => nonneg(v).map(|x| l.settle_ps = x),
                "jitter_ps" => nonneg(v).map(|x| l.jitter_ps = x),
                "sample_window_ps" => nonneg(v).map(|x| l.sample_window_ps = x),
                "wave_margin" => positive(v).map(|x| l.wave_margin = x),
                "budget_hops" => count(v).map(|x| l.budget_hops = x),
                "router_delay_s" => nonneg(v).map(|x| l.router_delay_s = x),
                "raw_bandwidth_bps" => positive(v).map(|x| l.raw_bandwidth_bps = x),
                "raw_per_hop_s" => nonneg(v).map(|x| l.raw_per_hop_s = x),
                "derate_bandwidth_bps" => nonneg(v).map(|x| l.derate_bandwidth_bps = x),
                _ => return Err(unknown()),
            }
        }
        Section::Bus => {
            let b = &mut spec.bus;
            match key {
                "enabled" => boolean(v).map(|x| b.enabled = x),
                "arbitration_s" => nonneg(v).map(|x| b.arbitration_s = x),
                "per_node_config_s" => nonneg(v).map(|x| b.per_node_config_s = x),
                "bandwidth_derate" => match positive(v) {
                    Ok(x) if x <= 1.0 => {
                        b.bandwidth_derate = x;
                        Ok(())
                    }
                    _ => Err(format!("needs a fraction in (0, 1], got `{v}`")),
                },
                _ => return Err(unknown()),
            }
        }
        Section::Node => match key {
            "mem_bytes" => count(v).map(|x| spec.node.mem_bytes = x),
            _ => return Err(unknown()),
        },
        Section::Topology => {
            let t = &mut spec.topology;
            match key {
                "kind" => settings::choice(v, &TopoKind::ALL, TopoKind::name).map(|x| t.kind = x),
                "dim_x" => number(v).map(|x| t.dim_x = x),
                "dim_y" => number(v).map(|x| t.dim_y = x),
                "dim_z" => number(v).map(|x| t.dim_z = x),
                "pods" => number(v).map(|x| t.pods = x),
                _ => return Err(unknown()),
            }
        }
    };
    r.map_err(|why| (MachineCode::BadValue, format!("`{key}` {why}")))
}

