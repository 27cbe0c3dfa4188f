//! # cluster-sim — the PC-node model
//!
//! Models the compute side of the paper's machine: each node is a
//! 300 MHz Pentium-II PC with 64 MB of memory, running Linux, attached
//! to a V-Bus network card through a device driver.
//!
//! Three things matter for reproducing the paper's numbers:
//!
//! 1. **CPU cost** — a [`cpu::CpuModel`] converts operation counts
//!    (flops, loads, stores, loop overhead) into virtual seconds. Table 1
//!    speedups are ratios of compute time to communication time, so only
//!    the *ratio* between this model and the network model matters.
//! 2. **NIC cost** ([`nic::NicModel`]) — the MPI-2 implementation's key
//!    asymmetry: *contiguous* PUT/GET program a DMA descriptor once and
//!    let the engine stream from the user buffer ("without interrupting
//!    the processor", §2.2), whereas *strided* PUT/GET use programmed
//!    I/O, the CPU copying the user buffer into the device-driver buffer
//!    "one-element by one-element". This asymmetry is what makes the
//!    fine/middle/coarse granularity trade-off of §5.6 exist at all.
//! 3. **Software stack** — the paper's library shares a message queue
//!    between the device driver and the MPI daemon and copies directly
//!    from the user buffer into the driver buffer, performing
//!    "user-level communication rather than system-level communication
//!    which incurs additional overhead for context switching" (§7). The
//!    NIC model exposes both the optimized and the conventional stack so
//!    the ablation bench (A2) can quantify the gap.

#![forbid(unsafe_code)]

mod cpu;
mod nic;

use vbus_sim::NetConfig;

pub use cpu::{CpuModel, OpCounts};
pub use nic::{HostCostBreakdown, NicModel, Protocol, TransferKind};
pub use vbus_sim::Mesh;

/// Maximum aspect ratio a rectangular job partition may have before
/// the exact factorization is considered degenerate and the allocator
/// falls back to a near-square shape with spare router positions.
pub const MAX_PARTITION_ASPECT: usize = 4;

/// Why a rectangular partition shape could not be produced. Machine
/// descriptions introduce topologies (crossbar, fat-tree) that have no
/// rectangular sub-shape at all, so shape requests need a typed error
/// instead of an assert: a scheduler can then reject the job or fall
/// back to a pure allocation footprint, rather than abort the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// A partition holds at least one rank.
    ZeroRanks,
    /// The machine's topology admits no rectangular sub-shape; callers
    /// that only need an *allocation footprint* (a NodeMap rectangle,
    /// not wires) should fall back to [`Mesh::near_square`] explicitly.
    NoRectangular {
        ranks: usize,
        /// Stable topology-kind name (`"crossbar"`, `"fattree"`, …).
        topology: &'static str,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::ZeroRanks => write!(f, "a partition holds at least one rank"),
            ShapeError::NoRectangular { ranks, topology } => write!(
                f,
                "a {topology} topology has no rectangular sub-shape for {ranks} ranks"
            ),
        }
    }
}

/// Shape of the rectangular partition a gang scheduler should carve
/// for a job of `ranks` processes, or `Err(ShapeError::ZeroRanks)`.
///
/// Policy (documented here, pinned by tests): prefer the most-square
/// *exact* factorization of `ranks` with aspect ratio at most
/// [`MAX_PARTITION_ASPECT`] (no wasted positions); when none exists —
/// primes and other awkward counts like 7 or 13 — fall back
/// *deliberately* to [`Mesh::near_square`], which wastes under one row
/// of router positions but never produces a `1 x n` chain for
/// `ranks >= 3`. The degenerate chain is thus unreachable either way.
/// Every positive rank count gets a shape on rectangular topologies;
/// the `NoRectangular` variant is produced by topology-aware callers
/// (the machine-description layer) for switch-based fabrics.
pub fn try_partition_shape(ranks: usize) -> Result<Mesh, ShapeError> {
    if ranks == 0 {
        return Err(ShapeError::ZeroRanks);
    }
    Ok(Mesh::exact_factor(ranks, MAX_PARTITION_ASPECT).unwrap_or_else(|| Mesh::near_square(ranks)))
}

/// Configuration of one PC in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    pub cpu: CpuModel,
    pub nic: NicModel,
    /// Installed memory, bytes (the paper's nodes carry 64 MB).
    pub mem_bytes: usize,
}

impl NodeConfig {
    /// The paper's node: 300 MHz Pentium II, 64 MB, V-Bus card with the
    /// shared driver/daemon queue optimization.
    pub fn paper_pc() -> Self {
        NodeConfig {
            cpu: CpuModel::pentium_ii_300(),
            nic: NicModel::vbus_card(),
            mem_bytes: 64 << 20,
        }
    }
}

/// The achieved link bandwidth of the paper's *prototype*, bytes/s.
/// The card nominally delivers 50 MB/s (4x Fast Ethernet), but the
/// paper's Table 1 speedups (1.75 @ 256²/4 nodes, 3.03 @ 1024²/4
/// nodes) are only consistent with a far lower effective rate — the
/// authors call their prototype "premature". With 6 MB/s the
/// reproduced MM speedups land within a few percent of Table 1 (see
/// EXPERIMENTS.md); [`ClusterConfig::paper_n`] keeps the nominal
/// hardware.
pub const PROTOTYPE_LINK_BPS: f64 = 6.0e6;

/// Configuration of the whole machine: homogeneous nodes plus the
/// interconnect.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub node: NodeConfig,
    pub net: NetConfig,
}

impl ClusterConfig {
    /// The machine of §6: 4 PCs on a 2x2 SKWP mesh with V-Bus broadcast.
    pub fn paper_4node() -> Self {
        Self::paper_n(4)
    }

    /// The paper's node/card scaled to `n` nodes (near-square mesh).
    pub fn paper_n(n: usize) -> Self {
        ClusterConfig {
            node: NodeConfig::paper_pc(),
            net: NetConfig::vbus_skwp(n),
        }
    }

    /// Number of nodes in the machine.
    pub fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }
}

/// The rank→physical-node remap maintained by in-run rollback
/// recovery: every rank starts on its home node, and each respawn
/// moves a crashed rank onto the next node from a finite spare pool.
/// Spare node ids continue past the active partition (`ranks`,
/// `ranks+1`, …), matching how a real cluster keeps warm standby nodes
/// outside the job's gang. Purely bookkeeping — the virtual-time cost
/// model is node-homogeneous, so a remap changes placement history,
/// never timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverMap {
    /// Ranks in the partition.
    pub ranks: usize,
    /// Spare nodes provisioned at job start.
    pub spares_total: usize,
    /// Current physical node of each rank (`map[r]`).
    pub map: Vec<usize>,
    /// Every remap performed, in order: `(rank, from_node, to_node)`.
    pub history: Vec<(usize, usize, usize)>,
}

impl FailoverMap {
    /// Identity placement of `ranks` ranks with `spares` standby nodes.
    pub fn new(ranks: usize, spares: usize) -> Self {
        FailoverMap {
            ranks,
            spares_total: spares,
            map: (0..ranks).collect(),
            history: Vec::new(),
        }
    }

    /// Spare nodes not yet consumed by a failover.
    pub fn spares_left(&self) -> usize {
        self.spares_total - self.history.len()
    }

    /// Move crashed rank `r` onto the next spare node. Returns the
    /// `(from, to)` pair, or `None` when the spare pool is exhausted
    /// (the caller then fails the recovery with VPCE403).
    pub fn remap(&mut self, r: usize) -> Option<(usize, usize)> {
        if self.spares_left() == 0 {
            return None;
        }
        let from = self.map[r];
        let to = self.ranks + self.history.len();
        self.map[r] = to;
        self.history.push((r, from, to));
        Some((from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterConfig::paper_4node();
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.node.mem_bytes, 64 << 20);
        assert!((c.node.cpu.clock_hz - 300e6).abs() < 1.0);
    }

    #[test]
    fn partition_shapes_are_exact_or_deliberately_near_square() {
        let shape = |ranks| try_partition_shape(ranks).unwrap();
        assert_eq!(try_partition_shape(0), Err(ShapeError::ZeroRanks));
        // Exact aspect-bounded factorizations win…
        assert_eq!(shape(1), Mesh::new(1, 1));
        assert_eq!(shape(4), Mesh::new(2, 2));
        assert_eq!(shape(8), Mesh::new(4, 2));
        assert_eq!(shape(12), Mesh::new(4, 3));
        assert_eq!(shape(2), Mesh::new(2, 1));
        // …awkward counts fall back to near-square, never a chain.
        for ranks in [5, 7, 11, 13, 17, 22] {
            let m = shape(ranks);
            assert_eq!(m, Mesh::near_square(ranks), "ranks={ranks}");
            assert!(m.rows >= 2, "ranks={ranks} got a {}x{} chain", m.cols, m.rows);
            assert!(m.num_nodes() >= ranks);
        }
    }

    #[test]
    fn shape_errors_render_their_cause() {
        assert_eq!(
            ShapeError::ZeroRanks.to_string(),
            "a partition holds at least one rank"
        );
        let e = ShapeError::NoRectangular { ranks: 7, topology: "crossbar" };
        assert_eq!(
            e.to_string(),
            "a crossbar topology has no rectangular sub-shape for 7 ranks"
        );
    }

    #[test]
    fn failover_map_consumes_spares_in_order_and_keeps_history() {
        let mut fm = FailoverMap::new(4, 2);
        assert_eq!(fm.spares_left(), 2);
        assert_eq!(fm.map[3], 3);
        // First failover: rank 3 moves to spare node 4.
        assert_eq!(fm.remap(3), Some((3, 4)));
        assert_eq!(fm.map[3], 4);
        assert_eq!(fm.spares_left(), 1);
        // A rank can fail over twice; the pool keeps draining in order.
        assert_eq!(fm.remap(3), Some((4, 5)));
        assert_eq!(fm.spares_left(), 0);
        assert_eq!(fm.remap(0), None, "exhausted pool refuses the remap");
        assert_eq!(fm.history, vec![(3, 3, 4), (3, 4, 5)]);
        // Untouched ranks keep their home nodes.
        assert_eq!(fm.map[0], 0);
        assert_eq!(fm.map[2], 2);
    }
}
