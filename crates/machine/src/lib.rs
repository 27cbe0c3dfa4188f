//! vpce-machine — declarative machine descriptions.
//!
//! The paper's environment hard-wires one machine: 300 MHz Pentium-II
//! PCs, the V-Bus card, SKWP links on a 2-D mesh. This crate turns
//! every one of those constants into data: a layered `key = value`
//! description (the sesc `.conf` idiom — a file is a set of overrides
//! on a built-in preset or an included base) that lowers to the
//! existing [`cluster_sim::ClusterConfig`] model stack. The
//! calibration numbers live once, in the model crates: the built-in
//! `paper` preset is built from their constructors, so `--machine
//! examples/machines/paper.machine` reproduces every report and trace
//! bit-for-bit.
//!
//! Three layers:
//!
//! * `spec` — the resolved description ([`MachineSpec`]) with its
//!   built-in presets and the stable `--machine-dump` renderer;
//! * [`mod@parse`] — the section/key parser over one row per key
//!   ([`parse::SECTIONS`]), with include layering and stable
//!   `VPCE5xx` diagnostics;
//! * the lowering (here) — `MachineSpec → ClusterConfig` plus the
//!   topology-zoo constructors and partition-shape policy.

#![forbid(unsafe_code)]

pub mod parse;
mod spec;

pub use parse::{parse, parse_layered, IncludeLoader};
pub use spec::{LinkSpec, MachineSpec, Signalling, TopoKind, TopoSpec};

use cluster_sim::{ClusterConfig, ShapeError};
use vbus_sim::{LinkPhy, LinkRate, Mesh, NetConfig, Topology};
use vpce_diag::{DiagCode, Diagnostic, Severity};

/// Stable diagnostic codes for machine-description problems
/// (`VPCE500`–`VPCE506`; the registry lives in `vpce-diag`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MachineCode {
    /// VPCE500 — a line that is neither blank, comment, section
    /// header, nor `key = value`.
    BadLine,
    /// VPCE501 — unknown `[section]` name.
    UnknownSection,
    /// VPCE502 — unknown key for the section it appears in.
    UnknownKey,
    /// VPCE503 — unparsable or out-of-range value.
    BadValue,
    /// VPCE504 — unresolvable, cyclic, or misplaced `include`.
    BadInclude,
    /// VPCE505 — topology constraints unsatisfiable (dims, pod
    /// counts, power-of-two node counts).
    BadTopology,
    /// VPCE506 — a key set twice in one section of one file.
    DuplicateKey,
}

impl DiagCode for MachineCode {
    fn as_str(self) -> &'static str {
        match self {
            MachineCode::BadLine => "VPCE500",
            MachineCode::UnknownSection => "VPCE501",
            MachineCode::UnknownKey => "VPCE502",
            MachineCode::BadValue => "VPCE503",
            MachineCode::BadInclude => "VPCE504",
            MachineCode::BadTopology => "VPCE505",
            MachineCode::DuplicateKey => "VPCE506",
        }
    }

    fn severity(self) -> Severity {
        Severity::Error
    }
}

/// A machine-description failure: parse-time (bad line/section/key/
/// value/include) or lowering-time (unsatisfiable topology).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineError {
    pub code: MachineCode,
    /// 1-based source line, 0 when the error is not tied to a line
    /// (lowering-time topology errors).
    pub line: usize,
    /// The offending key or section name, empty when not applicable.
    pub key: String,
    /// Human-readable explanation.
    pub detail: String,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.detail)?;
        if self.line > 0 {
            write!(f, " (line {})", self.line)?;
        }
        Ok(())
    }
}

impl std::error::Error for MachineError {}

impl MachineError {
    /// Convert to the shared diagnostic shape (site `machine`).
    pub fn to_diagnostic(&self) -> Diagnostic<MachineCode> {
        let mut d = Diagnostic::bare(self.code);
        d.line = self.line;
        d.site = "machine".into();
        d.detail = self.detail.clone();
        d
    }

    fn topology(detail: String) -> Self {
        MachineError {
            code: MachineCode::BadTopology,
            line: 0,
            key: "topology".into(),
            detail,
        }
    }
}

impl MachineSpec {
    /// The signal-level phy the `[link]` section describes. Line
    /// delays are spaced evenly across the spread, as the paper card's
    /// are.
    pub fn link_phy(&self) -> LinkPhy {
        let l = &self.link;
        LinkPhy {
            width_bits: l.width_bits,
            line_delays_ps: LinkPhy::even_line_delays(
                l.width_bits,
                l.line_delay_min_ps,
                l.line_delay_spread_ps,
            ),
            settle_ps: l.settle_ps,
            jitter_ps: l.jitter_ps,
            sample_window_ps: l.sample_window_ps,
            wave_margin: l.wave_margin,
            budget_hops: l.budget_hops,
        }
    }

    /// The scheduler-level link rate: derived from the phy for
    /// skwp/conventional/wave, taken verbatim for `raw`, then capped
    /// at `derate_bandwidth_bps` when set.
    pub fn link_rate(&self) -> LinkRate {
        let mut rate = match self.link.signalling {
            Signalling::Raw => self.link.raw,
            mode => self.link_phy().rate(mode.mode(), self.link.router_delay_s),
        };
        if let Some(bps) = self.link.derate_bandwidth_bps {
            rate.bandwidth_bps = bps;
        }
        rate
    }

    /// Wire `n` nodes into the described fabric. Fails (VPCE505) when
    /// the shape knobs cannot hold `n` nodes: a non-power-of-two
    /// hypercube, explicit torus dims that are too small or mix zero
    /// with nonzero.
    pub fn topology(&self, n: usize) -> Result<Topology, MachineError> {
        if n == 0 {
            return Err(MachineError::topology(
                "a machine holds at least one node".into(),
            ));
        }
        let t = &self.topology;
        Ok(match t.kind {
            TopoKind::Mesh => Topology::mesh_for(n),
            TopoKind::Torus => Topology::torus_for(n),
            TopoKind::Torus3d => {
                let dims = (t.dim_x, t.dim_y, t.dim_z);
                if dims == (0, 0, 0) {
                    Topology::torus3d_for(n)
                } else if dims.0 > 0 && dims.1 > 0 && dims.2 > 0 {
                    // Every cell owns six directed links: the cell and
                    // the link count must both fit a `usize`.
                    let Some(cells) = (dims.0.checked_mul(dims.1))
                        .and_then(|c| c.checked_mul(dims.2))
                        .filter(|c| c.checked_mul(6).is_some())
                    else {
                        return Err(MachineError::topology(format!(
                            "torus3d dims {}x{}x{} overflow the cell and link counts",
                            dims.0, dims.1, dims.2
                        )));
                    };
                    if n > cells {
                        return Err(MachineError::topology(format!(
                            "{n} nodes do not fit a {}x{}x{} torus",
                            dims.0, dims.1, dims.2
                        )));
                    }
                    Topology::torus3d_with(dims, n)
                } else {
                    return Err(MachineError::topology(format!(
                        "torus3d dims must be all zero (auto) or all positive, got {}x{}x{}",
                        dims.0, dims.1, dims.2
                    )));
                }
            }
            TopoKind::Hypercube => {
                if !n.is_power_of_two() {
                    return Err(MachineError::topology(format!(
                        "a hypercube needs a power-of-two node count, got {n}"
                    )));
                }
                Topology::hypercube_for(n)
            }
            TopoKind::Crossbar => Topology::crossbar_for(n),
            TopoKind::FatTree => {
                if t.pods == 0 {
                    Topology::fattree_for(n)
                } else {
                    Topology::fattree_with(t.pods, n)
                }
            }
            TopoKind::Shared => Topology::shared_for(n),
        })
    }

    /// Lower the full description to the model stack for `n` nodes.
    /// For the `paper` preset this is byte-identical to
    /// [`ClusterConfig::paper_n`].
    pub fn lower(&self, n: usize) -> Result<ClusterConfig, MachineError> {
        Ok(self.cluster(self.topology(n)?))
    }

    /// This machine's nodes, link and bus on `topology`.
    fn cluster(&self, topology: Topology) -> ClusterConfig {
        ClusterConfig {
            node: self.node.clone(),
            net: NetConfig {
                topology,
                link: self.link_rate(),
                vbus: self.bus_enabled.then_some(self.bus),
            },
        }
    }

    /// The shape a gang scheduler should carve for a `ranks`-node
    /// partition — only rectangular fabrics (mesh, torus) have one;
    /// switch-based fabrics report [`ShapeError::NoRectangular`].
    pub fn partition_shape(&self, ranks: usize) -> Result<Mesh, ShapeError> {
        if ranks == 0 {
            return Err(ShapeError::ZeroRanks);
        }
        if !self.topology.kind.rectangular() {
            return Err(ShapeError::NoRectangular {
                ranks,
                topology: self.topology.kind.name(),
            });
        }
        cluster_sim::try_partition_shape(ranks)
    }

    /// Like [`Self::partition_shape`], but switch-based fabrics fall
    /// back to a near-square *accounting* footprint — the scheduler
    /// still draws its allocation map even when the fabric has no
    /// rectangular sub-shape to carve.
    pub fn partition_footprint(&self, ranks: usize) -> Result<Mesh, ShapeError> {
        match self.partition_shape(ranks) {
            Err(ShapeError::NoRectangular { ranks, .. }) => Ok(Mesh::near_square(ranks)),
            other => other,
        }
    }

    /// Lower a `ranks`-node partition carved as `shape`: the per-job
    /// machine a gang scheduler builds. On rectangular fabrics the
    /// partition owns its wires (an explicit sub-mesh/sub-torus), so
    /// concurrent jobs are fully isolated; on switch-based fabrics each
    /// partition gets its own fabric instance sized for `ranks`.
    pub fn lower_partition(&self, shape: Mesh, ranks: usize) -> Result<ClusterConfig, MachineError> {
        let topology = match self.topology.kind {
            TopoKind::Mesh => Topology::mesh_with(shape, ranks),
            TopoKind::Torus => Topology::Torus {
                mesh: shape,
                nodes: ranks,
            },
            _ => self.topology(ranks)?,
        };
        Ok(self.cluster(topology))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{NicModel, NodeConfig, PROTOTYPE_LINK_BPS};
    use vbus_sim::{SignallingMode, ROUTER_DELAY_S};

    /// Bit-exact f64 equality — byte-identity is the contract.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    /// `Debug` prints every f64 so that it reads back to the same bits,
    /// so equal renderings are bit-identical configurations.
    fn assert_cluster_identical(got: &ClusterConfig, want: &ClusterConfig) {
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn paper_preset_lowers_byte_identical_to_hardcoded_constructors() {
        for n in [1, 2, 4, 7, 9, 16] {
            let got = MachineSpec::paper().lower(n).unwrap();
            assert_cluster_identical(&got, &ClusterConfig::paper_n(n));
        }
    }

    /// `prototype` is the paper machine with its link capped at the
    /// prototype's achieved rate.
    #[test]
    fn prototype_preset_matches_prototype_n() {
        for n in [2, 4, 8] {
            let mut want = ClusterConfig::paper_n(n);
            want.net.link.bandwidth_bps = PROTOTYPE_LINK_BPS;
            let got = MachineSpec::prototype().lower(n).unwrap();
            assert_cluster_identical(&got, &want);
        }
    }

    /// `fast-ethernet` is the paper PC with the kernel-stack card on the
    /// simulator's Fast-Ethernet segment.
    #[test]
    fn fast_ethernet_preset_matches_fast_ethernet_n() {
        for n in [2, 4, 8] {
            let want = ClusterConfig {
                node: NodeConfig {
                    nic: NicModel::fast_ethernet_card(),
                    ..NodeConfig::paper_pc()
                },
                net: NetConfig::fast_ethernet(n),
            };
            let got = MachineSpec::fast_ethernet().lower(n).unwrap();
            assert_cluster_identical(&got, &want);
        }
    }

    /// `conventional` is the paper machine with the card clocked
    /// conventionally behind the same router.
    #[test]
    fn conventional_preset_matches_conventional_links_n() {
        for n in [2, 4, 8] {
            let mut want = ClusterConfig::paper_n(n);
            want.net.link =
                LinkPhy::paper_card().rate(SignallingMode::Conventional, ROUTER_DELAY_S);
            let got = MachineSpec::conventional().lower(n).unwrap();
            assert_cluster_identical(&got, &want);
        }
    }

    #[test]
    fn paper_partition_lowering_matches_paper_partition() {
        for (cols, rows, ranks) in [(2, 2, 4), (3, 2, 5), (4, 1, 3)] {
            let shape = Mesh { cols, rows };
            let mut want = ClusterConfig::paper_n(ranks);
            want.net.topology = Topology::mesh_with(shape, ranks);
            let got = MachineSpec::paper().lower_partition(shape, ranks).unwrap();
            assert_cluster_identical(&got, &want);
        }
    }

    #[test]
    fn paper_partition_isolates_shape_and_size() {
        let c = MachineSpec::paper()
            .lower_partition(Mesh::new(2, 1), 2)
            .unwrap();
        assert_eq!(c.num_nodes(), 2);
        // The partition keeps the paper card (V-Bus present).
        assert!(c.net.vbus.is_some());
    }

    #[test]
    fn fast_ethernet_cluster_uses_kernel_stack() {
        let c = MachineSpec::fast_ethernet().lower(4).unwrap();
        assert!(!c.node.nic.shared_queue);
        assert!(c.net.vbus.is_none());
    }

    #[test]
    fn conventional_links_slower_than_skwp() {
        let bps = |m: MachineSpec| m.lower(4).unwrap().net.link.bandwidth_bps;
        assert!(bps(MachineSpec::paper()) / bps(MachineSpec::conventional()) > 3.0);
    }

    #[test]
    fn paper_phy_matches_paper_card() {
        let phy = MachineSpec::paper().link_phy();
        let card = LinkPhy::paper_card();
        assert_eq!(phy.width_bits, card.width_bits);
        assert_eq!(phy.line_delays_ps.len(), card.line_delays_ps.len());
        for (a, b) in phy.line_delays_ps.iter().zip(&card.line_delays_ps) {
            assert!(same(*a, *b));
        }
        assert!(same(phy.settle_ps, card.settle_ps));
        assert!(same(phy.jitter_ps, card.jitter_ps));
        assert!(same(phy.sample_window_ps, card.sample_window_ps));
        assert!(same(phy.wave_margin, card.wave_margin));
        assert_eq!(phy.budget_hops, card.budget_hops);
    }

    #[test]
    fn calibration_skwp_gain_is_about_four() {
        let phy = MachineSpec::paper().link_phy();
        let gain = phy.bandwidth_bps(SignallingMode::Skwp)
            / phy.bandwidth_bps(SignallingMode::Conventional);
        assert!((3.5..=4.5).contains(&gain), "skwp gain {gain}");
        // And the absolute numbers the paper quotes: 50 MB/s SKWP,
        // 12.5 MB/s conventional (4x Fast Ethernet).
        assert!((phy.bandwidth_bps(SignallingMode::Skwp) - 50e6).abs() < 1e3);
        assert!((phy.bandwidth_bps(SignallingMode::Conventional) - 12.5e6).abs() < 1e3);
    }

    #[test]
    fn dump_round_trips_every_builtin() {
        for name in MachineSpec::BUILTINS {
            let spec = MachineSpec::builtin(name).unwrap();
            let reparsed = parse(&spec.dump())
                .unwrap_or_else(|e| panic!("round-trip of `{name}` failed: {e}"));
            assert_eq!(reparsed, spec, "round-trip of `{name}` not identical");
        }
    }

    #[test]
    fn zoo_topologies_lower_for_all_builtins() {
        for name in MachineSpec::BUILTINS {
            let spec = MachineSpec::builtin(name).unwrap();
            for n in [1, 4, 8] {
                let cfg = spec.lower(n).unwrap_or_else(|e| panic!("{name}/{n}: {e}"));
                assert_eq!(cfg.num_nodes(), n);
            }
        }
    }

    #[test]
    fn parse_reports_each_code() {
        let cases: &[(&str, MachineCode)] = &[
            ("gibberish line", MachineCode::BadLine),
            ("[link\nwidth_bits = 8", MachineCode::BadLine),
            ("[warp]", MachineCode::UnknownSection),
            ("[cpu]\nturbo = 1", MachineCode::UnknownKey),
            ("[cpu]\nclock_hz = fast", MachineCode::BadValue),
            ("[cpu]\nclock_hz = -1", MachineCode::BadValue),
            ("[cpu]\nclock_hz = inf", MachineCode::BadValue),
            ("[link]\nsignalling = telepathy", MachineCode::BadValue),
            ("[bus]\nbandwidth_derate = 1.5", MachineCode::BadValue),
            ("[topology]\nkind = moebius", MachineCode::BadValue),
            ("include = no-such-preset", MachineCode::BadInclude),
            ("[cpu]\ninclude = paper", MachineCode::BadInclude),
            ("name = x\ninclude = paper", MachineCode::BadInclude),
        ];
        for (text, want) in cases {
            let err = parse(text).unwrap_err();
            assert_eq!(err.code, *want, "for {text:?}: {err}");
            assert!(err.line > 0, "for {text:?}");
        }
    }

    #[test]
    fn error_display_carries_code_and_line() {
        let err = parse("[cpu]\nclock_hz = fast").unwrap_err();
        let s = err.to_string();
        assert!(s.contains("VPCE503"), "{s}");
        assert!(s.contains("line 2"), "{s}");
        let d = err.to_diagnostic();
        assert_eq!(d.line, 2);
        assert_eq!(d.site, "machine");
    }

    #[test]
    fn overrides_layer_on_the_paper_base() {
        let spec = parse("[cpu]\nclock_hz = 450e6\n[topology]\nkind = torus\n").unwrap();
        assert!(same(spec.node.cpu.clock_hz, 450e6));
        assert_eq!(spec.topology.kind, TopoKind::Torus);
        // Everything untouched stays at the paper values.
        assert!(same(spec.node.nic.post_s, 3.0e-6));
        assert!(same(spec.link.wave_margin, 1.5));
    }

    #[test]
    fn include_swaps_the_base_layer() {
        let spec = parse("include = prototype\n[machine]\nname = tweaked\n").unwrap();
        assert_eq!(spec.name, "tweaked");
        assert_eq!(spec.link.derate_bandwidth_bps, Some(6.0e6));
    }

    #[test]
    fn include_resolves_files_through_the_loader() {
        let mut loader = |path: &str| -> Result<String, String> {
            match path {
                "base.machine" => Ok("include = fast-ethernet\n[node]\nmem_bytes = 1024\n".into()),
                _ => Err("unknown".into()),
            }
        };
        let spec = parse_layered("include = base.machine\n[nic]\nring_depth = 2\n", &mut loader)
            .unwrap();
        assert_eq!(spec.node.mem_bytes, 1024);
        assert_eq!(spec.node.nic.ring_depth, 2);
        assert_eq!(spec.topology.kind, TopoKind::Shared);
    }

    #[test]
    fn cyclic_includes_hit_the_depth_limit() {
        let mut loader =
            |_: &str| -> Result<String, String> { Ok("include = loop.machine\n".into()) };
        let err = parse_layered("include = loop.machine\n", &mut loader).unwrap_err();
        assert_eq!(err.code, MachineCode::BadInclude);
        assert!(err.detail.contains("cycle"), "{err}");
    }

    #[test]
    fn unsatisfiable_topologies_report_vpce505() {
        let mut hyper = MachineSpec::builtin("hypercube").unwrap();
        assert_eq!(hyper.topology.kind, TopoKind::Hypercube);
        let err = hyper.lower(12).unwrap_err();
        assert_eq!(err.code, MachineCode::BadTopology);
        assert!(hyper.lower(16).is_ok());

        hyper.topology.kind = TopoKind::Torus3d;
        hyper.topology.dim_x = 2;
        hyper.topology.dim_y = 2;
        let err = hyper.lower(4).unwrap_err();
        assert_eq!(err.code, MachineCode::BadTopology);
        hyper.topology.dim_z = 2;
        assert!(hyper.lower(8).is_ok());
        let err = hyper.lower(9).unwrap_err();
        assert_eq!(err.code, MachineCode::BadTopology);

        // Dims whose cell count, or whose six-links-a-cell count,
        // overflows are refused, not wrapped.
        for side in [1 << 22, 1 << 21] {
            let t = &mut hyper.topology;
            (t.dim_x, t.dim_y, t.dim_z) = (side, side, side);
            let err = hyper.lower(4).unwrap_err();
            assert_eq!(err.code, MachineCode::BadTopology);
            assert!(err.detail.contains("overflow"), "{err}");
        }

        let err = MachineSpec::paper().lower(0).unwrap_err();
        assert_eq!(err.code, MachineCode::BadTopology);
    }

    #[test]
    fn partition_shapes_respect_the_fabric() {
        let paper = MachineSpec::paper();
        assert_eq!(paper.partition_shape(6), cluster_sim::try_partition_shape(6));
        let xbar = MachineSpec::builtin("crossbar").unwrap();
        assert_eq!(
            xbar.partition_shape(6),
            Err(ShapeError::NoRectangular {
                ranks: 6,
                topology: "crossbar"
            })
        );
        assert_eq!(xbar.partition_footprint(6).unwrap(), Mesh::near_square(6));
        assert_eq!(xbar.partition_shape(0), Err(ShapeError::ZeroRanks));
    }

    #[test]
    fn raw_signalling_takes_the_link_rate_verbatim() {
        let fe = MachineSpec::fast_ethernet();
        let rate = fe.link_rate();
        assert!(same(rate.bandwidth_bps, 12.5e6));
        assert!(same(rate.per_hop_s, 5e-6));
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let spec = parse("  # a comment\n\n[cpu]  # trailing\n  clock_hz = 1e9  # fast\n").unwrap();
        assert!(same(spec.node.cpu.clock_hz, 1e9));
    }
}
