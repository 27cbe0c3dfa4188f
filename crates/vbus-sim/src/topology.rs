//! Network topologies: the paper's 2-D mesh, the torus and hypercube
//! §2.1 also names, an APENet-style 3-D torus, a crossbar switch, a
//! two-level fat-tree, and the shared segment of the Fast-Ethernet
//! reference model.
//!
//! The grids (mesh, torus, 3-D torus) and the hypercube route one
//! dimension at a time, lowest first — the deterministic,
//! deadlock-free order of the wormhole router on the paper's network
//! card (Kim et al., "A Wormhole Router with Embedded Broadcasting
//! Virtual Bus for Mesh Computers"). The grids share one walk,
//! [`walk`]: on a mesh XY routing (X to the destination column, then
//! Y), on a torus the shorter way around each ring.

/// Identifier of a node (PC) in the cluster, `0..n`.
pub type NodeId = usize;

/// A directed link identifier, `0..topology.num_links()`.
pub(crate) type LinkId = usize;

/// A 2-D grid cell's `[+, −]` link per dimension: east, west along X;
/// south, north along Y. Trace lanes name links by id, so these stay.
const PORTS_2D: [[LinkId; 2]; 2] = [[0, 1], [3, 2]];

/// A 3-D torus cell's `[+, −]` link per dimension: ±x, ±y, ±z.
const PORTS_3D: [[LinkId; 2]; 3] = [[0, 1], [2, 3], [4, 5]];

/// A network topology: supplies routes (lists of directed links) between
/// node pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// A 2-D mesh with XY dimension-ordered routing. `nodes` PCs are
    /// attached at positions `0..nodes`; any remaining mesh positions
    /// are routers without a PC (a non-square machine).
    Mesh { mesh: Mesh, nodes: usize },
    /// A 2-D torus: the mesh with wraparound links, halving the
    /// diameter. §2.1 lists the torus among the switched networks the
    /// V-Bus targets ("e.g., mesh, torus and hypercube").
    Torus { mesh: Mesh, nodes: usize },
    /// A binary hypercube (power-of-two nodes), the third switched
    /// network §2.1 names. E-cube (dimension-ordered) routing.
    Hypercube { dims: u32, nodes: usize },
    /// A single shared segment (hub/repeater era Fast Ethernet): every
    /// message between distinct nodes occupies the one shared link, so
    /// all traffic serialises — the property that makes the paper's
    /// mesh-based card "more scalable" than a shared network (§2.1).
    SharedSegment { nodes: usize },
    /// A 3-D torus in the APENet mould: `dims = (x, y, z)` cells with
    /// wraparound in every dimension, six directed links per cell,
    /// dimension-ordered shorter-way-around routing. Nodes attach at
    /// cells `0..nodes`; remaining cells are routers without a PC.
    Torus3d { dims: (usize, usize, usize), nodes: usize },
    /// A switched crossbar (the PMS "Poor Man's Supercomputer" /
    /// switched Fast-Ethernet style): every node has a dedicated uplink
    /// to one non-blocking switch and a dedicated downlink back, so any
    /// src→dst pair contends only on those two ports, never on shared
    /// fabric.
    Crossbar { nodes: usize },
    /// A two-level fat-tree: nodes hang off per-pod edge switches and
    /// the edge switches share one core switch. In-pod traffic crosses
    /// the edge switch (2 hops); cross-pod traffic climbs to the core
    /// and back down (4 hops). Pod uplinks are the deliberate choke
    /// point the scaling benches probe.
    FatTree { pods: usize, nodes: usize },
}

impl Topology {
    /// A near-square mesh for `n` nodes (the paper's 4-node machine is a
    /// 2x2 mesh).
    pub fn mesh_for(n: usize) -> Self {
        Topology::Mesh {
            mesh: Mesh::near_square(n),
            nodes: n,
        }
    }

    /// A mesh of explicit shape with `n` nodes attached at positions
    /// `0..n` (the remaining positions are routers without a PC) —
    /// the shape a gang scheduler carves for a rectangular partition.
    ///
    /// # Panics
    /// Panics if the mesh cannot hold `n` nodes.
    pub fn mesh_with(mesh: Mesh, n: usize) -> Self {
        assert!(n > 0, "topology needs at least one node");
        assert!(
            n <= mesh.num_nodes(),
            "{n} nodes do not fit a {}x{} mesh",
            mesh.cols,
            mesh.rows
        );
        Topology::Mesh { mesh, nodes: n }
    }

    /// A near-square torus for `n` nodes.
    pub fn torus_for(n: usize) -> Self {
        Topology::Torus {
            mesh: Mesh::near_square(n),
            nodes: n,
        }
    }

    /// A binary hypercube for `n` nodes.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two.
    pub fn hypercube_for(n: usize) -> Self {
        assert!(n.is_power_of_two(), "hypercube needs a power-of-two size");
        Topology::Hypercube {
            dims: n.trailing_zeros(),
            nodes: n,
        }
    }

    /// Shared-segment topology for `n` nodes (Fast-Ethernet reference).
    pub fn shared_for(n: usize) -> Self {
        Topology::SharedSegment { nodes: n }
    }

    /// A near-cubic 3-D torus for `n` nodes (spare cells are routers
    /// without a PC, like the near-square mesh).
    pub fn torus3d_for(n: usize) -> Self {
        Topology::Torus3d {
            dims: near_cubic(n),
            nodes: n,
        }
    }

    /// A 3-D torus of explicit dimensions with `n` nodes attached at
    /// cells `0..n`.
    ///
    /// # Panics
    /// Panics if the torus cannot hold `n` nodes or a dimension is zero.
    pub fn torus3d_with(dims: (usize, usize, usize), n: usize) -> Self {
        assert!(n > 0, "topology needs at least one node");
        assert!(
            dims.0 > 0 && dims.1 > 0 && dims.2 > 0,
            "torus3d dimensions must be positive"
        );
        assert!(
            n <= dims.0 * dims.1 * dims.2,
            "{n} nodes do not fit a {}x{}x{} torus",
            dims.0,
            dims.1,
            dims.2
        );
        Topology::Torus3d { dims, nodes: n }
    }

    /// A non-blocking crossbar switch for `n` nodes.
    pub fn crossbar_for(n: usize) -> Self {
        assert!(n > 0, "topology needs at least one node");
        Topology::Crossbar { nodes: n }
    }

    /// A two-level fat-tree for `n` nodes with `ceil(sqrt(n))` pods.
    pub fn fattree_for(n: usize) -> Self {
        assert!(n > 0, "topology needs at least one node");
        let pods = ((n as f64).sqrt().ceil() as usize).max(1);
        Self::fattree_with(pods, n)
    }

    /// A two-level fat-tree with an explicit pod count. Nodes fill pods
    /// in blocks of `ceil(n / pods)`.
    pub fn fattree_with(pods: usize, n: usize) -> Self {
        assert!(n > 0, "topology needs at least one node");
        assert!(pods > 0, "fat-tree needs at least one pod");
        Topology::FatTree {
            pods: pods.min(n),
            nodes: n,
        }
    }

    /// Number of PCs attached to the network.
    pub fn num_nodes(&self) -> usize {
        match self {
            Topology::Mesh { nodes, .. }
            | Topology::Torus { nodes, .. }
            | Topology::Hypercube { nodes, .. }
            | Topology::Torus3d { nodes, .. }
            | Topology::Crossbar { nodes }
            | Topology::FatTree { nodes, .. } => *nodes,
            Topology::SharedSegment { nodes } => *nodes,
        }
    }

    /// Number of directed links managed by the scheduler.
    pub fn num_links(&self) -> usize {
        match self {
            // A grid cell owns 2·D links, one per port; a mesh's edge
            // links simply stay unused.
            Topology::Mesh { mesh, .. } | Topology::Torus { mesh, .. } => mesh.num_nodes() * 4,
            Topology::Torus3d { dims, .. } => dims.0 * dims.1 * dims.2 * 6,
            // One outgoing link per dimension per node.
            Topology::Hypercube { dims, nodes } => nodes * *dims as usize,
            Topology::SharedSegment { .. } => 1,
            // One uplink and one downlink per node port.
            Topology::Crossbar { nodes } => nodes * 2,
            // Node up/downlinks plus pod up/downlinks to the core.
            Topology::FatTree { pods, nodes } => nodes * 2 + pods * 2,
        }
    }

    /// The directed links a message from `src` to `dst` occupies, in
    /// traversal order. Empty for `src == dst` (loopback never touches
    /// the wire).
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        self.route_into(src, dst, &mut links);
        links
    }

    /// [`route`](Self::route) into a buffer the caller keeps: `links`
    /// is cleared and filled, so a caller that routes message after
    /// message (the link simulator) allocates once, not per message.
    pub fn route_into(&self, src: NodeId, dst: NodeId, links: &mut Vec<LinkId>) {
        links.clear();
        if src == dst {
            return;
        }
        match *self {
            Topology::Mesh { mesh, .. } => {
                walk::<2, false>(mesh.shape(), PORTS_2D, src, dst, links)
            }
            Topology::Torus { mesh, .. } => {
                walk::<2, true>(mesh.shape(), PORTS_2D, src, dst, links)
            }
            Topology::Torus3d { dims: (x, y, z), .. } => {
                walk::<3, true>([x, y, z], PORTS_3D, src, dst, links)
            }
            Topology::Hypercube { dims, .. } => {
                // E-cube: correct differing bits from the lowest
                // dimension up, the walk's order over bits.
                let mut cur = src;
                for d in 0..dims {
                    if (cur ^ dst) & (1 << d) != 0 {
                        links.push(cur * dims as usize + d as usize);
                        cur ^= 1 << d;
                    }
                }
            }
            Topology::SharedSegment { .. } => links.push(0),
            // Uplink of the source port, downlink of the destination
            // port, through the non-blocking switch.
            Topology::Crossbar { nodes } => links.extend([src, nodes + dst]),
            Topology::FatTree { pods, nodes } => {
                let per_pod = nodes.div_ceil(pods);
                let (ps, pd) = (src / per_pod, dst / per_pod);
                if ps == pd {
                    // Turn around at the pod's edge switch.
                    links.extend([src, nodes + dst]);
                } else {
                    // Up to the edge, up to the core, down the far pod.
                    links.extend([src, 2 * nodes + ps, 2 * nodes + pods + pd, nodes + dst]);
                }
            }
        }
    }

    /// Number of router hops between `src` and `dst` (0 for loopback).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        match *self {
            Topology::Mesh { mesh, .. } => span::<2, false>(mesh.shape(), src, dst),
            Topology::Torus { mesh, .. } => span::<2, true>(mesh.shape(), src, dst),
            Topology::Torus3d { dims: (x, y, z), .. } => span::<3, true>([x, y, z], src, dst),
            Topology::Hypercube { .. } => (src ^ dst).count_ones() as usize,
            Topology::SharedSegment { .. } => usize::from(src != dst),
            Topology::Crossbar { .. } => {
                if src == dst {
                    0
                } else {
                    2
                }
            }
            Topology::FatTree { pods, nodes } => {
                if src == dst {
                    return 0;
                }
                let per_pod = nodes.div_ceil(pods);
                if src / per_pod == dst / per_pod {
                    2
                } else {
                    4
                }
            }
        }
    }

    /// Network diameter in hops.
    pub fn diameter(&self) -> usize {
        match *self {
            Topology::Mesh { mesh, .. } => reach::<2, false>(mesh.shape()),
            Topology::Torus { mesh, .. } => reach::<2, true>(mesh.shape()),
            Topology::Torus3d { dims: (x, y, z), .. } => reach::<3, true>([x, y, z]),
            Topology::Hypercube { dims, .. } => dims as usize,
            Topology::SharedSegment { .. } => 1,
            Topology::Crossbar { nodes } => {
                if nodes <= 1 {
                    0
                } else {
                    2
                }
            }
            Topology::FatTree { pods, nodes } => {
                if nodes <= 1 {
                    0
                } else if nodes <= nodes.div_ceil(pods) {
                    2
                } else {
                    4
                }
            }
        }
    }
}

/// Steps along one dimension of `n` cells from coordinate `a` to `b`,
/// and whether they go `+`. On a line the sign of `b − a` picks the
/// direction; on a ring (`WRAP`) the shorter way wins and a tie goes
/// `+`.
#[inline]
fn leg<const WRAP: bool>(n: usize, a: usize, b: usize) -> (usize, bool) {
    if WRAP {
        let fwd = (b + n - a) % n;
        if fwd <= n - fwd {
            (fwd, true)
        } else {
            (n - fwd, false)
        }
    } else {
        (a.abs_diff(b), b >= a)
    }
}

/// The coordinates of `cell` on a grid of `shape`: mixed radix,
/// dimension 0 fastest.
#[inline]
fn coords<const D: usize>(shape: [usize; D], mut cell: usize) -> [usize; D] {
    let mut c = [0; D];
    for d in 0..D - 1 {
        c[d] = cell % shape[d];
        cell /= shape[d];
    }
    c[D - 1] = cell;
    c
}

/// The dimension-ordered route from `src` to `dst` on a grid of
/// `shape`, appended to `links`. Cell `c` owns links
/// `c·2D .. c·2D + 2D`, and `ports[d]` names its `[+, −]` link along
/// dimension `d`. Each dimension is finished, lowest first, before the
/// next is entered. `D` and `WRAP` are compile-time: read at run time
/// they make every route markedly slower.
fn walk<const D: usize, const WRAP: bool>(
    shape: [usize; D],
    ports: [[LinkId; 2]; D],
    src: NodeId,
    dst: NodeId,
    links: &mut Vec<LinkId>,
) {
    let (from, to) = (coords(shape, src), coords(shape, dst));
    let (mut cell, mut stride) = (src, 1);
    for d in 0..D {
        let (n, mut x) = (shape[d], from[d]);
        let (steps, plus) = leg::<WRAP>(n, x, to[d]);
        let port = ports[d][usize::from(!plus)];
        for _ in 0..steps {
            links.push(cell * 2 * D + port);
            // Only a ring steps past either end.
            if plus {
                x += 1;
                cell += stride;
                if WRAP && x == n {
                    x = 0;
                    cell -= n * stride;
                }
            } else {
                if WRAP && x == 0 {
                    x = n;
                    cell += n * stride;
                }
                x -= 1;
                cell -= stride;
            }
        }
        stride *= n;
    }
}

/// The length of [`walk`]'s route: its steps summed over dimensions.
fn span<const D: usize, const WRAP: bool>(shape: [usize; D], src: NodeId, dst: NodeId) -> usize {
    let (a, b) = (coords(shape, src), coords(shape, dst));
    (0..D).map(|d| leg::<WRAP>(shape[d], a[d], b[d]).0).sum()
}

/// The longest [`walk`]: per dimension, end to end on a line, half way
/// round on a ring.
fn reach<const D: usize, const WRAP: bool>(shape: [usize; D]) -> usize {
    shape.iter().map(|&n| if WRAP { n / 2 } else { n - 1 }).sum()
}

/// Near-cubic dimensions holding at least `n` cells: the 3-D analogue
/// of [`Mesh::near_square`] (largest dimension first, spare cells stay
/// under one plane).
fn near_cubic(n: usize) -> (usize, usize, usize) {
    assert!(n > 0, "torus must hold at least one node");
    let x = ((n as f64).cbrt().ceil() as usize).max(1);
    let rest = n.div_ceil(x);
    let y = ((rest as f64).sqrt().ceil() as usize).max(1);
    let z = rest.div_ceil(y);
    (x, y, z)
}

/// A `cols x rows` 2-D mesh. Node `i` sits at
/// `(x, y) = (i % cols, i / cols)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    pub cols: usize,
    pub rows: usize,
}

impl Mesh {
    /// Construct a mesh with the given dimensions.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be positive");
        Mesh { cols, rows }
    }

    /// The most nearly square mesh holding at least `n` nodes.
    ///
    /// `n = 4` gives the paper's 2x2 configuration.
    ///
    /// **Factorization policy** (load-bearing for awkward node counts):
    /// `cols = ceil(sqrt(n))`, `rows = ceil(n / cols)`, so
    /// `cols >= rows` always, and for every `n >= 3` the result has
    /// `rows >= 2` — a prime or otherwise non-rectangular `n` (7, 13,
    /// 17…) gets a compact grid with up to `cols - 1` unpopulated
    /// router positions, **never** a silent degenerate `1 x n` chain
    /// (whose diameter and bisection would collapse the wormhole
    /// model). Only `n = 1` and `n = 2` are chains, and those are the
    /// honest shapes. Callers that need an *exact* factorization
    /// (no spare routers) use [`Mesh::exact_factor`] and fall back
    /// here deliberately when it declines.
    pub fn near_square(n: usize) -> Self {
        assert!(n > 0, "mesh must hold at least one node");
        let mut cols = (n as f64).sqrt().ceil() as usize;
        cols = cols.max(1);
        let rows = n.div_ceil(cols);
        Mesh { cols, rows }
    }

    /// The most nearly square *exact* factorization `cols x rows == n`
    /// with `cols >= rows` and aspect ratio `cols / rows <= max_aspect`.
    ///
    /// Returns `None` when nothing fits: `n = 0`, or every exact
    /// factorization is too elongated (e.g. any prime `n > max_aspect`).
    /// An over-stretched chain is a degenerate mesh, and refusing it
    /// forces the caller to choose the fallback ([`Mesh::near_square`]
    /// with spare routers) explicitly rather than receive a `1 x n`
    /// wire by accident.
    pub fn exact_factor(n: usize, max_aspect: usize) -> Option<Self> {
        // Largest divisor <= sqrt(n) gives the most-square pair.
        let rows = (1..=n.isqrt()).rev().find(|r| n % r == 0)?;
        let cols = n / rows;
        (cols <= rows * max_aspect).then_some(Mesh { cols, rows })
    }

    /// Total node capacity of the mesh.
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Node at `(x, y)`.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        debug_assert!(x < self.cols && y < self.rows);
        y * self.cols + x
    }

    /// `[cols, rows]`: the mesh as a grid, X fastest.
    fn shape(&self) -> [usize; 2] {
        [self.cols, self.rows]
    }
}

#[cfg(test)]
mod route_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_shapes() {
        assert_eq!(Mesh::near_square(1), Mesh::new(1, 1));
        assert_eq!(Mesh::near_square(2), Mesh::new(2, 1));
        assert_eq!(Mesh::near_square(4), Mesh::new(2, 2));
        assert_eq!(Mesh::near_square(6), Mesh::new(3, 2));
        assert_eq!(Mesh::near_square(9), Mesh::new(3, 3));
        assert_eq!(Mesh::near_square(12), Mesh::new(4, 3));
    }

    #[test]
    fn near_square_never_degenerates_into_a_chain() {
        // Awkward node counts (primes, non-squares) must get a compact
        // grid, never a silent 1 x n wire. Pinned policy: rows >= 2
        // for every n >= 3, and the waste stays under one row.
        for n in [3, 5, 7, 11, 13, 17, 19, 23, 29, 97] {
            let m = Mesh::near_square(n);
            assert!(m.rows >= 2, "n={n} degenerated to {}x{}", m.cols, m.rows);
            assert!(m.cols >= m.rows, "n={n}: {}x{}", m.cols, m.rows);
            assert!(m.num_nodes() >= n, "n={n} does not fit");
            assert!(
                m.num_nodes() - n < m.cols,
                "n={n} wastes a whole row on a {}x{} mesh",
                m.cols,
                m.rows
            );
        }
        // The two honest chains.
        assert_eq!(Mesh::near_square(1), Mesh::new(1, 1));
        assert_eq!(Mesh::near_square(2), Mesh::new(2, 1));
    }

    #[test]
    fn exact_factor_bounds_aspect_or_declines() {
        assert_eq!(Mesh::exact_factor(16, 4), Some(Mesh::new(4, 4)));
        assert_eq!(Mesh::exact_factor(12, 4), Some(Mesh::new(4, 3)));
        assert_eq!(Mesh::exact_factor(8, 4), Some(Mesh::new(4, 2)));
        assert_eq!(Mesh::exact_factor(3, 4), Some(Mesh::new(3, 1)));
        assert_eq!(Mesh::exact_factor(1, 1), Some(Mesh::new(1, 1)));
        // Primes above the aspect bound refuse rather than chain.
        assert_eq!(Mesh::exact_factor(7, 4), None);
        assert_eq!(Mesh::exact_factor(13, 4), None);
        assert_eq!(Mesh::exact_factor(18, 4), Some(Mesh::new(6, 3)));
        // 2x11 is the squarest exact pair for 22; aspect 5.5 > 4.
        assert_eq!(Mesh::exact_factor(22, 4), None);
        assert_eq!(Mesh::exact_factor(22, 6), Some(Mesh::new(11, 2)));
        // Nothing fits no nodes, or an aspect bound of zero.
        assert_eq!(Mesh::exact_factor(0, 4), None);
        assert_eq!(Mesh::exact_factor(4, 0), None);
    }

    #[test]
    fn mesh_with_attaches_partial_nodes() {
        let t = Topology::mesh_with(Mesh::new(4, 4), 13);
        assert_eq!(t.num_nodes(), 13);
        assert_eq!(t.num_links(), 64);
        // Routing still works through unpopulated router positions.
        assert!(!t.route(0, 12).is_empty());
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn mesh_with_rejects_overfull_shapes() {
        let _ = Topology::mesh_with(Mesh::new(2, 2), 5);
    }

    #[test]
    fn near_square_capacity_suffices() {
        for n in 1..=64 {
            assert!(Mesh::near_square(n).num_nodes() >= n, "n={n}");
        }
    }

    /// A `cols x rows` mesh with a PC at every position.
    fn full_mesh(cols: usize, rows: usize) -> Topology {
        Topology::mesh_with(Mesh::new(cols, rows), cols * rows)
    }

    #[test]
    fn coords_roundtrip() {
        // From the origin, a route runs x hops east then y hops south
        // to node_at(x, y); each cell is named once.
        let (m, t) = (Mesh::new(4, 3), full_mesh(4, 3));
        let mut seen = vec![false; m.num_nodes()];
        for y in 0..m.rows {
            for x in 0..m.cols {
                let node = m.node_at(x, y);
                assert!(!std::mem::replace(&mut seen[node], true), "({x},{y})");
                let route = t.route(0, node);
                assert_eq!(route.len(), x + y, "({x},{y})");
                assert!(route[..x].iter().all(|l| l % 4 == 0), "east first: {route:?}");
                assert!(route[x..].iter().all(|l| l % 4 == 3), "then south: {route:?}");
            }
        }
    }

    #[test]
    fn xy_route_length_is_manhattan_distance() {
        let (m, t) = (Mesh::new(4, 4), full_mesh(4, 4));
        let xy = |n: NodeId| (n % m.cols, n / m.cols);
        for s in 0..16 {
            for d in 0..16 {
                let ((sx, sy), (dx, dy)) = (xy(s), xy(d));
                let manhattan = sx.abs_diff(dx) + sy.abs_diff(dy);
                assert_eq!(t.hops(s, d), manhattan, "{s}->{d}");
                assert_eq!(t.route(s, d).len(), manhattan, "{s}->{d}");
            }
        }
    }

    #[test]
    fn xy_route_loopback_is_empty() {
        let t = full_mesh(3, 3);
        for n in 0..9 {
            assert!(t.route(n, n).is_empty());
            assert_eq!(t.hops(n, n), 0);
        }
    }

    #[test]
    fn xy_routes_share_no_link_in_opposite_directions() {
        // A->B and B->A use disjoint directed links.
        let t = full_mesh(3, 3);
        for s in 0..9 {
            for d in 0..9 {
                if s == d {
                    continue;
                }
                let fwd = t.route(s, d);
                let bwd = t.route(d, s);
                for l in &fwd {
                    assert!(!bwd.contains(l), "{s}<->{d} share directed link {l}");
                }
            }
        }
    }

    #[test]
    fn paper_2x2_mesh_routes() {
        // Paper configuration: 4 nodes in a 2x2 mesh.
        let t = Topology::mesh_for(4);
        assert_eq!(t.hops(0, 3), 2); // corner to corner: 2 hops
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 2), 1);
        // East out of node 0, then south out of node 1.
        assert_eq!(t.route(0, 3), vec![0, 7]);
    }

    #[test]
    fn torus_distance_uses_wraparound() {
        let mesh = full_mesh(4, 4);
        let torus = Topology::Torus { mesh: Mesh::new(4, 4), nodes: 16 };
        // Corner to corner: 6 hops on the mesh, 2 on the torus.
        assert_eq!(mesh.hops(0, 15), 6);
        assert_eq!(torus.hops(0, 15), 2);
        assert_eq!(torus.hops(0, 3), 1, "wrap west beats 3 east");
        assert_eq!(torus.route(0, 3), vec![1], "west out of node 0");
        // A tie (2 hops either way) goes east.
        assert_eq!(torus.route(0, 2), vec![0, 4]);
    }

    #[test]
    fn torus_route_length_matches_torus_distance() {
        let t = Topology::Torus { mesh: Mesh::new(4, 3), nodes: 12 };
        for s in 0..12 {
            for d in 0..12 {
                assert_eq!(t.route(s, d).len(), t.hops(s, d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn torus_route_lands_on_destination() {
        // Walk the links and verify the path is connected: each link
        // id decodes to (node, dir); replay the walk.
        let m = Mesh::new(5, 4);
        let t = Topology::Torus { mesh: m, nodes: 20 };
        for s in 0..20 {
            for d in 0..20 {
                let (mut x, mut y) = (s % m.cols, s / m.cols);
                for l in t.route(s, d) {
                    let node = l / 4;
                    assert_eq!(node, m.node_at(x, y), "{s}->{d} disconnected");
                    match l % 4 {
                        0 => x = (x + 1) % m.cols,
                        1 => x = (x + m.cols - 1) % m.cols,
                        2 => y = (y + m.rows - 1) % m.rows,
                        3 => y = (y + 1) % m.rows,
                        _ => unreachable!(),
                    }
                }
                assert_eq!(m.node_at(x, y), d, "{s}->{d} wrong endpoint");
            }
        }
    }

    #[test]
    fn torus_diameter_half_of_mesh() {
        let mesh = Topology::mesh_for(16);
        let torus = Topology::torus_for(16);
        assert_eq!(mesh.diameter(), 6);
        assert_eq!(torus.diameter(), 4);
    }

    #[test]
    fn hypercube_routes_follow_hamming_distance() {
        let h = Topology::hypercube_for(16);
        for s in 0..16usize {
            for d in 0..16usize {
                assert_eq!(h.route(s, d).len(), (s ^ d).count_ones() as usize);
                assert_eq!(h.hops(s, d), (s ^ d).count_ones() as usize);
            }
        }
        assert_eq!(h.diameter(), 4);
        assert_eq!(h.num_links(), 64);
    }

    #[test]
    fn hypercube_ecube_routes_are_connected() {
        let h = Topology::hypercube_for(8);
        for s in 0..8usize {
            for d in 0..8usize {
                let mut cur = s;
                for l in h.route(s, d) {
                    let node = l / 3;
                    let dim = l % 3;
                    assert_eq!(node, cur, "{s}->{d} disconnected");
                    cur ^= 1 << dim;
                }
                assert_eq!(cur, d, "{s}->{d} wrong endpoint");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hypercube_rejects_non_power_of_two() {
        Topology::hypercube_for(6);
    }

    #[test]
    fn shared_segment_serialises_everything_on_one_link() {
        let t = Topology::shared_for(8);
        assert_eq!(t.num_links(), 1);
        assert_eq!(t.route(2, 5), vec![0]);
        assert_eq!(t.route(3, 3), Vec::<LinkId>::new());
    }

    #[test]
    fn torus3d_route_length_matches_distance() {
        for t in [Topology::torus3d_for(8), Topology::torus3d_with((4, 3, 2), 24)] {
            let n = t.num_nodes();
            for s in 0..n {
                for d in 0..n {
                    assert_eq!(t.route(s, d).len(), t.hops(s, d), "{s}->{d}");
                }
            }
        }
    }

    #[test]
    fn torus3d_near_cubic_shapes() {
        // 8 → 2x2x2, 27 → 3x3x3; awkward counts get spare router cells
        // but never more than one plane of waste.
        assert_eq!(Topology::torus3d_for(8), Topology::torus3d_with((2, 2, 2), 8));
        assert_eq!(Topology::torus3d_for(27), Topology::torus3d_with((3, 3, 3), 27));
        for n in [5, 7, 11, 13, 19, 24, 64] {
            if let Topology::Torus3d { dims, nodes } = Topology::torus3d_for(n) {
                assert_eq!(nodes, n);
                let cap = dims.0 * dims.1 * dims.2;
                assert!(cap >= n, "n={n} does not fit {dims:?}");
                assert!(cap - n < dims.0 * dims.1, "n={n} wastes a plane on {dims:?}");
            } else {
                unreachable!()
            }
        }
    }

    #[test]
    fn torus3d_wraparound_shortens_routes() {
        // 4x3x2 torus: +x three hops forward is one hop backward.
        let t = Topology::torus3d_with((4, 3, 2), 24);
        assert_eq!(t.hops(0, 3), 1);
        assert_eq!(t.diameter(), 4 / 2 + 3 / 2 + 2 / 2);
        assert_eq!(t.num_links(), 24 * 6);
    }

    #[test]
    fn crossbar_is_two_hops_between_any_distinct_pair() {
        let t = Topology::crossbar_for(7);
        assert_eq!(t.num_links(), 14);
        assert_eq!(t.diameter(), 2);
        for s in 0..7 {
            for d in 0..7 {
                let r = t.route(s, d);
                if s == d {
                    assert!(r.is_empty());
                } else {
                    assert_eq!(r, vec![s, 7 + d]);
                    assert_eq!(t.hops(s, d), 2);
                }
            }
        }
        // Distinct pairs sharing no port share no links: 0->1 vs 2->3.
        let a = t.route(0, 1);
        let b = t.route(2, 3);
        assert!(a.iter().all(|l| !b.contains(l)));
    }

    #[test]
    fn fattree_in_pod_beats_cross_pod() {
        // 3 pods of 4: nodes 0-3, 4-7, 8-11.
        let t = Topology::fattree_with(3, 12);
        assert_eq!(t.num_links(), 12 * 2 + 3 * 2);
        assert_eq!(t.hops(0, 3), 2, "same pod turns at the edge switch");
        assert_eq!(t.hops(0, 4), 4, "cross pod climbs to the core");
        assert_eq!(t.diameter(), 4);
        // Cross-pod routes from the same pod share the pod uplink —
        // the deliberate choke point.
        let r1 = t.route(0, 4);
        let r2 = t.route(1, 8);
        assert_eq!(r1[1], r2[1], "pod uplink is shared");
    }

    #[test]
    fn fattree_single_pod_degenerates_to_crossbar_shape() {
        let t = Topology::fattree_with(1, 5);
        assert_eq!(t.diameter(), 2);
        for s in 0..5 {
            for d in 0..5 {
                if s != d {
                    assert_eq!(t.hops(s, d), 2);
                }
            }
        }
    }

    #[test]
    fn topology_mesh_dispatch() {
        let t = Topology::mesh_for(4);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.hops(0, 3), 2);
        assert_eq!(t.diameter(), 2);
        assert_eq!(t.route(0, 0), Vec::<LinkId>::new());
    }
}
