//! The resolved machine description and its built-in presets.
//!
//! A [`MachineSpec`] is the fully-layered result of parsing a
//! `.machine` file (or naming a built-in preset): every knob of the
//! cpu/nic/link/bus/node/topology models, as plain numbers. The
//! built-in `paper` preset carries *exactly* the constants hard-coded
//! in `cluster-sim` and `vbus-sim` — lowering it must reproduce
//! today's `ClusterConfig::paper_n` byte-for-byte, which the golden
//! tests pin.

use std::fmt::Write as _;

use vbus_sim::SignallingMode;

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

/// `[cpu]`: the per-operation cycle table and the local copy rate.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    pub clock_hz: f64,
    pub cyc_fadd: f64,
    pub cyc_fmul: f64,
    pub cyc_fdiv: f64,
    pub cyc_transcendental: f64,
    pub cyc_load: f64,
    pub cyc_store: f64,
    pub cyc_int: f64,
    pub cyc_loop: f64,
    pub memcpy_bps: f64,
}

/// `[nic]`: descriptor posting, DMA-setup and PIO costs, the driver
/// stack shape, and the registered buffer pool.
#[derive(Debug, Clone, PartialEq)]
pub struct NicSpec {
    pub post_s: f64,
    pub dma_setup_s: f64,
    pub pio_per_elem_s: f64,
    pub shared_queue: bool,
    pub context_switch_s: f64,
    /// Staging-copy rate, bytes/s (lowered to the model's s-per-byte
    /// reciprocal).
    pub staging_copy_bps: f64,
    pub driver_buf_bytes: usize,
    pub eager_slots: usize,
    pub eager_slot_bytes: usize,
    pub ring_depth: usize,
    pub ring_entry_s: f64,
}

/// `[link]`: the signal-level phy parameters plus the router delay —
/// or, for `signalling = raw`, a verbatim bandwidth/latency pair.
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
    /// Used only when `signalling = raw`.
    pub raw_bandwidth_bps: f64,
    /// Used only when `signalling = raw`.
    pub raw_per_hop_s: f64,
    /// `> 0` caps the achieved bandwidth at this value after the phy
    /// derivation — the `prototype` preset's ≈6 MB/s effective rate.
    pub derate_bandwidth_bps: f64,
}

/// `[bus]`: the virtual-bus broadcast hardware (absent when the card
/// has no hardware broadcast).
#[derive(Debug, Clone, PartialEq)]
pub struct BusSpec {
    pub enabled: bool,
    pub arbitration_s: f64,
    pub per_node_config_s: f64,
    pub bandwidth_derate: f64,
}

/// `[node]`: everything about the PC that is not cpu or nic.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    pub mem_bytes: usize,
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
    pub cpu: CpuSpec,
    pub nic: NicSpec,
    pub link: LinkSpec,
    pub bus: BusSpec,
    pub node: NodeSpec,
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
    /// with hardware broadcast. Every constant below mirrors the
    /// hard-coded model defaults; the calibration goldens assert the
    /// lowering is byte-identical.
    pub fn paper() -> Self {
        MachineSpec {
            name: "paper".into(),
            cpu: CpuSpec {
                clock_hz: 300e6,
                cyc_fadd: 3.0,
                cyc_fmul: 5.0,
                cyc_fdiv: 32.0,
                cyc_transcendental: 60.0,
                cyc_load: 2.5,
                cyc_store: 2.5,
                cyc_int: 1.0,
                cyc_loop: 2.0,
                memcpy_bps: 180e6,
            },
            nic: NicSpec {
                post_s: 3.0e-6,
                dma_setup_s: 10.0e-6,
                pio_per_elem_s: 0.6e-6,
                shared_queue: true,
                context_switch_s: 15.0e-6,
                staging_copy_bps: 180e6,
                driver_buf_bytes: 256 << 10,
                eager_slots: 16,
                eager_slot_bytes: 16 << 10,
                ring_depth: 8,
                ring_entry_s: 0.3e-6,
            },
            link: LinkSpec {
                signalling: Signalling::Skwp,
                width_bits: 16,
                line_delay_min_ps: 100_000.0,
                line_delay_spread_ps: 25_000.0,
                settle_ps: 10_000.0,
                jitter_ps: 5_000.0,
                sample_window_ps: 25_000.0,
                wave_margin: 1.5,
                budget_hops: 2,
                router_delay_s: 0.5e-6,
                raw_bandwidth_bps: 12.5e6,
                raw_per_hop_s: 5e-6,
                derate_bandwidth_bps: 0.0,
            },
            bus: BusSpec {
                enabled: true,
                arbitration_s: 2.0e-6,
                per_node_config_s: 0.5e-6,
                bandwidth_derate: 0.9,
            },
            node: NodeSpec { mem_bytes: 64 << 20 },
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
        m.link.derate_bandwidth_bps = 6.0e6;
        m
    }

    /// The Fast-Ethernet reference cluster: kernel-stack NIC, raw
    /// 12.5 MB/s shared segment, no hardware broadcast.
    pub fn fast_ethernet() -> Self {
        let mut m = Self::paper();
        m.name = "fast-ethernet".into();
        m.nic = NicSpec {
            post_s: 10.0e-6,
            dma_setup_s: 15.0e-6,
            pio_per_elem_s: 0.6e-6,
            shared_queue: false,
            context_switch_s: 25.0e-6,
            staging_copy_bps: 180e6,
            driver_buf_bytes: 64 << 10,
            eager_slots: 8,
            eager_slot_bytes: 8 << 10,
            ring_depth: 4,
            ring_entry_s: 1.0e-6,
        };
        m.link.signalling = Signalling::Raw;
        m.bus.enabled = false;
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
    /// stable section and key order, round-trips through the parser.
    /// `vpcec --machine-dump` prints exactly this.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# resolved machine description");
        let _ = writeln!(out, "[machine]");
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out);
        let _ = writeln!(out, "[cpu]");
        let _ = writeln!(out, "clock_hz = {}", self.cpu.clock_hz);
        let _ = writeln!(out, "cyc_fadd = {}", self.cpu.cyc_fadd);
        let _ = writeln!(out, "cyc_fmul = {}", self.cpu.cyc_fmul);
        let _ = writeln!(out, "cyc_fdiv = {}", self.cpu.cyc_fdiv);
        let _ = writeln!(out, "cyc_transcendental = {}", self.cpu.cyc_transcendental);
        let _ = writeln!(out, "cyc_load = {}", self.cpu.cyc_load);
        let _ = writeln!(out, "cyc_store = {}", self.cpu.cyc_store);
        let _ = writeln!(out, "cyc_int = {}", self.cpu.cyc_int);
        let _ = writeln!(out, "cyc_loop = {}", self.cpu.cyc_loop);
        let _ = writeln!(out, "memcpy_bps = {}", self.cpu.memcpy_bps);
        let _ = writeln!(out);
        let _ = writeln!(out, "[nic]");
        let _ = writeln!(out, "post_s = {}", self.nic.post_s);
        let _ = writeln!(out, "dma_setup_s = {}", self.nic.dma_setup_s);
        let _ = writeln!(out, "pio_per_elem_s = {}", self.nic.pio_per_elem_s);
        let _ = writeln!(out, "shared_queue = {}", self.nic.shared_queue);
        let _ = writeln!(out, "context_switch_s = {}", self.nic.context_switch_s);
        let _ = writeln!(out, "staging_copy_bps = {}", self.nic.staging_copy_bps);
        let _ = writeln!(out, "driver_buf_bytes = {}", self.nic.driver_buf_bytes);
        let _ = writeln!(out, "eager_slots = {}", self.nic.eager_slots);
        let _ = writeln!(out, "eager_slot_bytes = {}", self.nic.eager_slot_bytes);
        let _ = writeln!(out, "ring_depth = {}", self.nic.ring_depth);
        let _ = writeln!(out, "ring_entry_s = {}", self.nic.ring_entry_s);
        let _ = writeln!(out);
        let _ = writeln!(out, "[link]");
        let _ = writeln!(out, "signalling = {}", self.link.signalling.name());
        let _ = writeln!(out, "width_bits = {}", self.link.width_bits);
        let _ = writeln!(out, "line_delay_min_ps = {}", self.link.line_delay_min_ps);
        let _ = writeln!(out, "line_delay_spread_ps = {}", self.link.line_delay_spread_ps);
        let _ = writeln!(out, "settle_ps = {}", self.link.settle_ps);
        let _ = writeln!(out, "jitter_ps = {}", self.link.jitter_ps);
        let _ = writeln!(out, "sample_window_ps = {}", self.link.sample_window_ps);
        let _ = writeln!(out, "wave_margin = {}", self.link.wave_margin);
        let _ = writeln!(out, "budget_hops = {}", self.link.budget_hops);
        let _ = writeln!(out, "router_delay_s = {}", self.link.router_delay_s);
        let _ = writeln!(out, "raw_bandwidth_bps = {}", self.link.raw_bandwidth_bps);
        let _ = writeln!(out, "raw_per_hop_s = {}", self.link.raw_per_hop_s);
        let _ = writeln!(out, "derate_bandwidth_bps = {}", self.link.derate_bandwidth_bps);
        let _ = writeln!(out);
        let _ = writeln!(out, "[bus]");
        let _ = writeln!(out, "enabled = {}", self.bus.enabled);
        let _ = writeln!(out, "arbitration_s = {}", self.bus.arbitration_s);
        let _ = writeln!(out, "per_node_config_s = {}", self.bus.per_node_config_s);
        let _ = writeln!(out, "bandwidth_derate = {}", self.bus.bandwidth_derate);
        let _ = writeln!(out);
        let _ = writeln!(out, "[node]");
        let _ = writeln!(out, "mem_bytes = {}", self.node.mem_bytes);
        let _ = writeln!(out);
        let _ = writeln!(out, "[topology]");
        let _ = writeln!(out, "kind = {}", self.topology.kind.name());
        let _ = writeln!(out, "dim_x = {}", self.topology.dim_x);
        let _ = writeln!(out, "dim_y = {}", self.topology.dim_y);
        let _ = writeln!(out, "dim_z = {}", self.topology.dim_z);
        let _ = writeln!(out, "pods = {}", self.topology.pods);
        out
    }
}
