//! The resolved machine description and its built-in presets.
//!
//! A [`MachineSpec`] is the fully-layered result of parsing a
//! `.machine` file (or naming a built-in preset). It holds the model
//! structs themselves — the node's `CpuModel` and `NicModel`, the
//! [`VBusConfig`] — plus what a `ClusterConfig` has no place for: the
//! link's phy description and the topology's shape knobs. The presets
//! are the paper machine built from the model crates' constructors
//! plus a named delta each, so every calibration number is written
//! once, in `cluster-sim` and `vbus-sim`.

use std::fmt::{self, Write as _};

use cluster_sim::{NicModel, NodeConfig, PROTOTYPE_LINK_BPS};
use vbus_sim::{LinkPhy, LinkRate, SignallingMode, VBusConfig, ROUTER_DELAY_S};

use crate::parse::SECTIONS;

/// How the link section turns into a [`vbus_sim::LinkRate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signalling {
    /// Skew-tolerant wave pipelining (the paper's card).
    Skwp,
    /// Conventional register pipelining on the same phy.
    Conventional,
    /// Plain wave pipelining on the same phy.
    Wave,
    /// No phy model: `raw_bandwidth_bps` / `raw_per_hop_s` are taken
    /// verbatim (the Fast-Ethernet reference card).
    Raw,
}

impl Signalling {
    /// Every mode, in config-file order.
    pub const ALL: [Signalling; 4] =
        [Signalling::Skwp, Signalling::Conventional, Signalling::Wave, Signalling::Raw];

    /// Stable config-file name.
    pub fn name(self) -> &'static str {
        match self {
            Signalling::Skwp => "skwp",
            Signalling::Conventional => "conventional",
            Signalling::Wave => "wave",
            Signalling::Raw => "raw",
        }
    }

    /// The phy signalling mode (not meaningful for `Raw`).
    pub fn mode(self) -> SignallingMode {
        match self {
            Signalling::Skwp => SignallingMode::Skwp,
            Signalling::Conventional => SignallingMode::Conventional,
            Signalling::Wave | Signalling::Raw => SignallingMode::WavePipelined,
        }
    }
}

impl fmt::Display for Signalling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which interconnect shape the machine wires its nodes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// 2-D mesh with XY routing (the paper's machine).
    Mesh,
    /// 2-D torus (wraparound mesh).
    Torus,
    /// 3-D torus (APENet style).
    Torus3d,
    /// Binary hypercube (power-of-two nodes).
    Hypercube,
    /// Non-blocking crossbar switch (PMS / switched-Ethernet style).
    Crossbar,
    /// Two-level fat-tree with per-pod edge switches and one core.
    FatTree,
    /// One shared segment (hub-era Fast Ethernet).
    Shared,
}

impl TopoKind {
    /// Every shape, in config-file order.
    pub const ALL: [TopoKind; 7] = [
        TopoKind::Mesh,
        TopoKind::Torus,
        TopoKind::Torus3d,
        TopoKind::Hypercube,
        TopoKind::Crossbar,
        TopoKind::FatTree,
        TopoKind::Shared,
    ];

    /// Stable config-file name.
    pub fn name(self) -> &'static str {
        match self {
            TopoKind::Mesh => "mesh",
            TopoKind::Torus => "torus",
            TopoKind::Torus3d => "torus3d",
            TopoKind::Hypercube => "hypercube",
            TopoKind::Crossbar => "crossbar",
            TopoKind::FatTree => "fattree",
            TopoKind::Shared => "shared",
        }
    }

    /// Whether the fabric admits rectangular sub-partitions (a gang
    /// scheduler can carve a private sub-mesh with its own wires).
    pub fn rectangular(self) -> bool {
        matches!(self, TopoKind::Mesh | TopoKind::Torus)
    }
}

impl fmt::Display for TopoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `[link]`: the signal-level phy parameters plus the router delay —
/// or, for `signalling = raw`, a verbatim link rate.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    pub signalling: Signalling,
    pub width_bits: usize,
    /// Fastest line's propagation delay, ps.
    pub line_delay_min_ps: f64,
    /// Max-minus-min spread across the lines, ps (the skew SKWP
    /// samples and cancels). Lines are spaced evenly over the spread.
    pub line_delay_spread_ps: f64,
    pub settle_ps: f64,
    pub jitter_ps: f64,
    pub sample_window_ps: f64,
    pub wave_margin: f64,
    pub budget_hops: usize,
    pub router_delay_s: f64,
    /// The rate taken verbatim when `signalling = raw`
    /// (`raw_bandwidth_bps`, `raw_per_hop_s`).
    pub raw: LinkRate,
    /// Caps the achieved bandwidth at this value after the phy
    /// derivation — the `prototype` preset's ≈6 MB/s effective rate.
    /// Written `0` when there is no cap.
    pub derate_bandwidth_bps: Option<f64>,
}

/// `[topology]`: fabric kind plus the kind-specific shape knobs
/// (`0` means "derive from the node count").
#[derive(Debug, Clone, PartialEq)]
pub struct TopoSpec {
    pub kind: TopoKind,
    /// 3-D torus dimensions; all three `0` = near-cubic auto.
    pub dim_x: usize,
    pub dim_y: usize,
    pub dim_z: usize,
    /// Fat-tree pod count; `0` = `ceil(sqrt(n))` auto.
    pub pods: usize,
}

/// A fully-resolved machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Display name (`[machine] name = ...`).
    pub name: String,
    /// `[cpu]`, `[nic]` and `[node]`: one PC.
    pub node: NodeConfig,
    pub link: LinkSpec,
    /// `[bus] enabled`: whether the card erects a virtual bus.
    pub bus_enabled: bool,
    /// The rest of `[bus]`, kept when the bus is disabled so the dump
    /// still prints it.
    pub bus: VBusConfig,
    pub topology: TopoSpec,
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::paper()
    }
}

impl MachineSpec {
    /// Names accepted by [`MachineSpec::builtin`] (and therefore by
    /// `include =` and self-contained `machine =` jobfile fields).
    pub const BUILTINS: &'static [&'static str] = &[
        "paper",
        "prototype",
        "fast-ethernet",
        "conventional",
        "torus",
        "torus3d",
        "crossbar",
        "fattree",
        "hypercube",
    ];

    /// Resolve a built-in preset by name.
    pub fn builtin(name: &str) -> Option<Self> {
        Some(match name {
            "paper" => Self::paper(),
            "prototype" => Self::prototype(),
            "fast-ethernet" => Self::fast_ethernet(),
            "conventional" => Self::conventional(),
            "torus" => Self::with_topology("torus", TopoKind::Torus),
            "torus3d" => Self::with_topology("torus3d", TopoKind::Torus3d),
            "crossbar" => Self::with_topology("crossbar", TopoKind::Crossbar),
            "fattree" => Self::with_topology("fattree", TopoKind::FatTree),
            "hypercube" => Self::with_topology("hypercube", TopoKind::Hypercube),
            _ => return None,
        })
    }

    /// The paper's machine: 300 MHz Pentium-II nodes, the V-Bus card
    /// with the shared driver/daemon queue, SKWP links on a 2-D mesh
    /// with hardware broadcast — the model crates' own constructors,
    /// so lowering it is [`cluster_sim::ClusterConfig::paper_n`]. The
    /// `raw` link rate is the Fast-Ethernet reference, used only when
    /// a description switches to `signalling = raw`.
    pub fn paper() -> Self {
        let card = LinkPhy::paper_card();
        MachineSpec {
            name: "paper".into(),
            node: NodeConfig::paper_pc(),
            link: LinkSpec {
                signalling: Signalling::Skwp,
                width_bits: card.width_bits,
                // The card's line 0 is its fastest line.
                line_delay_min_ps: card.line_delays_ps[0],
                line_delay_spread_ps: card.skew_spread_ps(),
                settle_ps: card.settle_ps,
                jitter_ps: card.jitter_ps,
                sample_window_ps: card.sample_window_ps,
                wave_margin: card.wave_margin,
                budget_hops: card.budget_hops,
                router_delay_s: ROUTER_DELAY_S,
                raw: LinkRate::fast_ethernet(),
                derate_bandwidth_bps: None,
            },
            bus_enabled: true,
            bus: VBusConfig::paper(),
            topology: TopoSpec {
                kind: TopoKind::Mesh,
                dim_x: 0,
                dim_y: 0,
                dim_z: 0,
                pods: 0,
            },
        }
    }

    /// The paper's *prototype* calibration: nominal hardware with the
    /// link derated to the ≈6 MB/s effective rate Table 1 implies.
    pub fn prototype() -> Self {
        let mut m = Self::paper();
        m.name = "prototype".into();
        m.link.derate_bandwidth_bps = Some(PROTOTYPE_LINK_BPS);
        m
    }

    /// The Fast-Ethernet reference cluster: kernel-stack NIC, raw
    /// 12.5 MB/s shared segment, no hardware broadcast.
    pub fn fast_ethernet() -> Self {
        let mut m = Self::paper();
        m.name = "fast-ethernet".into();
        m.node.nic = NicModel::fast_ethernet_card();
        m.link.signalling = Signalling::Raw;
        m.bus_enabled = false;
        m.topology.kind = TopoKind::Shared;
        m
    }

    /// The paper's card clocked conventionally (≈¼ of the SKWP link
    /// bandwidth) — isolates the SKWP contribution.
    pub fn conventional() -> Self {
        let mut m = Self::paper();
        m.name = "conventional".into();
        m.link.signalling = Signalling::Conventional;
        m
    }

    fn with_topology(name: &str, kind: TopoKind) -> Self {
        let mut m = Self::paper();
        m.name = name.into();
        m.topology.kind = kind;
        m
    }

    /// Render the fully-resolved description in the machine format:
    /// every row of [`SECTIONS`] in table order, so it round-trips
    /// through the parser. `vpcec --machine-dump` prints exactly this.
    pub fn dump(&self) -> String {
        let mut out = String::from("# resolved machine description\n");
        for (i, section) in SECTIONS.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let _ = writeln!(out, "[{}]", section.name);
            for row in section.rows {
                let _ = writeln!(out, "{} = {}", row.key, (row.get)(self));
            }
        }
        out
    }
}
