//! Network topologies: the 2-D mesh the paper's cluster uses, plus a
//! shared-segment topology used by the Fast-Ethernet reference model.
//!
//! The mesh uses deterministic dimension-ordered (XY) wormhole routing:
//! a message first travels along the X dimension to the destination
//! column, then along Y to the destination row. XY routing is minimal
//! and deadlock-free on a mesh, which matches the wormhole router of
//! the paper's network card (Kim et al., "A Wormhole Router with
//! Embedded Broadcasting Virtual Bus for Mesh Computers").

/// Identifier of a node (PC) in the cluster, `0..n`.
pub type NodeId = usize;

/// A directed link identifier, `0..topology.num_links()`.
pub(crate) type LinkId = usize;

/// The four mesh directions, used to index per-node outgoing links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    East = 0,
    West = 1,
    North = 2,
    South = 3,
}

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
            // 4 outgoing directions per mesh position; edge links
            // simply stay unused (always used on the torus).
            Topology::Mesh { mesh, .. } | Topology::Torus { mesh, .. } => mesh.num_nodes() * 4,
            // One outgoing link per dimension per node.
            Topology::Hypercube { dims, nodes } => nodes * *dims as usize,
            Topology::SharedSegment { .. } => 1,
            // Six outgoing directions per cell, all usable (wraparound).
            Topology::Torus3d { dims, .. } => dims.0 * dims.1 * dims.2 * 6,
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
        match self {
            Topology::Mesh { mesh, .. } => mesh.xy_route_into(src, dst, links),
            Topology::Torus { mesh, .. } => mesh.torus_route_into(src, dst, links),
            Topology::Hypercube { dims, .. } => {
                // E-cube: correct differing bits from the lowest
                // dimension up; deadlock-free like XY on the mesh.
                let mut cur = src;
                for d in 0..*dims {
                    if (cur ^ dst) & (1 << d) != 0 {
                        links.push(cur * *dims as usize + d as usize);
                        cur ^= 1 << d;
                    }
                }
            }
            Topology::SharedSegment { .. } => links.push(0),
            Topology::Torus3d { dims, .. } => t3_route_into(*dims, src, dst, links),
            // Uplink of the source port, downlink of the destination
            // port, through the non-blocking switch.
            Topology::Crossbar { nodes } => links.extend([src, nodes + dst]),
            Topology::FatTree { pods, nodes } => {
                let per_pod = nodes.div_ceil(*pods);
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
        match self {
            Topology::Mesh { mesh, .. } => mesh.distance(src, dst),
            Topology::Torus { mesh, .. } => mesh.torus_distance(src, dst),
            Topology::Hypercube { .. } => (src ^ dst).count_ones() as usize,
            Topology::SharedSegment { .. } => usize::from(src != dst),
            Topology::Torus3d { dims, .. } => t3_distance(*dims, src, dst),
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
                let per_pod = nodes.div_ceil(*pods);
                if src / per_pod == dst / per_pod {
                    2
                } else {
                    4
                }
            }
        }
    }

    /// Decode a directed link id back to its `(from, to)` router pair —
    /// the provenance a fault diagnostic needs when a retransmit or a
    /// stall is attributed to one physical channel. Returns `None` for
    /// links with no single endpoint pair (the shared segment) and for
    /// mesh edge links that leave the machine (never routed over).
    pub fn endpoints(&self, link: LinkId) -> Option<(NodeId, NodeId)> {
        match self {
            Topology::Mesh { mesh, .. } => {
                let (node, dx, dy, wraps) = mesh.decode_link(link)?;
                let (x, y) = mesh.coords(node);
                if wraps {
                    return None; // off the edge: unused on a plain mesh
                }
                let nx = x.checked_add_signed(dx)?;
                let ny = y.checked_add_signed(dy)?;
                if nx >= mesh.cols || ny >= mesh.rows {
                    return None;
                }
                Some((node, mesh.node_at(nx, ny)))
            }
            Topology::Torus { mesh, .. } => {
                let (node, dx, dy, _) = mesh.decode_link(link)?;
                let (x, y) = mesh.coords(node);
                let nx = (x as isize + dx).rem_euclid(mesh.cols as isize) as usize;
                let ny = (y as isize + dy).rem_euclid(mesh.rows as isize) as usize;
                Some((node, mesh.node_at(nx, ny)))
            }
            Topology::Hypercube { dims, nodes } => {
                let d = *dims as usize;
                let node = link / d;
                if node >= *nodes {
                    return None;
                }
                Some((node, node ^ (1 << (link % d))))
            }
            Topology::SharedSegment { .. } => None,
            Topology::Torus3d { dims, .. } => {
                let cells = dims.0 * dims.1 * dims.2;
                let cell = link / 6;
                if cell >= cells {
                    return None;
                }
                Some((cell, t3_neighbor(*dims, cell, link % 6)))
            }
            // Switch endpoints use phantom ids past the node range:
            // the crossbar switch is node `n`; a fat-tree edge switch
            // of pod `p` is `n + p` and the core switch is `n + pods`.
            Topology::Crossbar { nodes } => {
                if link < *nodes {
                    Some((link, *nodes))
                } else if link < nodes * 2 {
                    Some((*nodes, link - nodes))
                } else {
                    None
                }
            }
            Topology::FatTree { pods, nodes } => {
                let per_pod = nodes.div_ceil(*pods);
                if link < *nodes {
                    Some((link, nodes + link / per_pod))
                } else if link < nodes * 2 {
                    let d = link - nodes;
                    Some((nodes + d / per_pod, d))
                } else if link < nodes * 2 + pods {
                    Some((nodes + (link - 2 * nodes), nodes + pods))
                } else if link < nodes * 2 + pods * 2 {
                    Some((nodes + pods, nodes + (link - 2 * nodes - pods)))
                } else {
                    None
                }
            }
        }
    }

    /// Network diameter in hops.
    pub fn diameter(&self) -> usize {
        match self {
            Topology::Mesh { mesh, .. } => (mesh.cols - 1) + (mesh.rows - 1),
            Topology::Torus { mesh, .. } => mesh.cols / 2 + mesh.rows / 2,
            Topology::Hypercube { dims, .. } => *dims as usize,
            Topology::SharedSegment { .. } => 1,
            Topology::Torus3d { dims, .. } => dims.0 / 2 + dims.1 / 2 + dims.2 / 2,
            Topology::Crossbar { nodes } => {
                if *nodes <= 1 {
                    0
                } else {
                    2
                }
            }
            Topology::FatTree { pods, nodes } => {
                if *nodes <= 1 {
                    0
                } else if *nodes <= nodes.div_ceil(*pods) {
                    2
                } else {
                    4
                }
            }
        }
    }
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

/// `(x, y, z)` coordinates of a cell in a 3-D torus.
fn t3_coords(dims: (usize, usize, usize), cell: usize) -> (usize, usize, usize) {
    (cell % dims.0, (cell / dims.0) % dims.1, cell / (dims.0 * dims.1))
}

fn t3_cell(dims: (usize, usize, usize), x: usize, y: usize, z: usize) -> usize {
    (z * dims.1 + y) * dims.0 + x
}

/// The six directed links of a cell: `cell * 6 + dir` with
/// `dir = 0..6` meaning +x, -x, +y, -y, +z, -z.
fn t3_neighbor(dims: (usize, usize, usize), cell: usize, dir: usize) -> usize {
    let (x, y, z) = t3_coords(dims, cell);
    let (nx, ny, nz) = match dir {
        0 => ((x + 1) % dims.0, y, z),
        1 => ((x + dims.0 - 1) % dims.0, y, z),
        2 => (x, (y + 1) % dims.1, z),
        3 => (x, (y + dims.1 - 1) % dims.1, z),
        4 => (x, y, (z + 1) % dims.2),
        _ => (x, y, (z + dims.2 - 1) % dims.2),
    };
    t3_cell(dims, nx, ny, nz)
}

/// Wraparound distance per dimension, summed.
fn t3_distance(dims: (usize, usize, usize), a: usize, b: usize) -> usize {
    let (ax, ay, az) = t3_coords(dims, a);
    let (bx, by, bz) = t3_coords(dims, b);
    let dx = ax.abs_diff(bx).min(dims.0 - ax.abs_diff(bx));
    let dy = ay.abs_diff(by).min(dims.1 - ay.abs_diff(by));
    let dz = az.abs_diff(bz).min(dims.2 - az.abs_diff(bz));
    dx + dy + dz
}

/// Dimension-ordered 3-D torus route: per dimension, walk the shorter
/// way around the ring (ties break toward increasing coordinates).
fn t3_route_into(dims: (usize, usize, usize), src: usize, dst: usize, links: &mut Vec<usize>) {
    let (mut x, mut y, mut z) = t3_coords(dims, src);
    let (tx, ty, tz) = t3_coords(dims, dst);
    // X dimension.
    let fwd = (tx + dims.0 - x) % dims.0;
    let go_plus = fwd <= dims.0 - fwd;
    for _ in 0..fwd.min(dims.0 - fwd) {
        let cell = t3_cell(dims, x, y, z);
        if go_plus {
            links.push(cell * 6);
            x = (x + 1) % dims.0;
        } else {
            links.push(cell * 6 + 1);
            x = (x + dims.0 - 1) % dims.0;
        }
    }
    // Y dimension.
    let fwd = (ty + dims.1 - y) % dims.1;
    let go_plus = fwd <= dims.1 - fwd;
    for _ in 0..fwd.min(dims.1 - fwd) {
        let cell = t3_cell(dims, x, y, z);
        if go_plus {
            links.push(cell * 6 + 2);
            y = (y + 1) % dims.1;
        } else {
            links.push(cell * 6 + 3);
            y = (y + dims.1 - 1) % dims.1;
        }
    }
    // Z dimension.
    let fwd = (tz + dims.2 - z) % dims.2;
    let go_plus = fwd <= dims.2 - fwd;
    for _ in 0..fwd.min(dims.2 - fwd) {
        let cell = t3_cell(dims, x, y, z);
        if go_plus {
            links.push(cell * 6 + 4);
            z = (z + 1) % dims.2;
        } else {
            links.push(cell * 6 + 5);
            z = (z + dims.2 - 1) % dims.2;
        }
    }
}

/// Why [`Mesh::try_exact_factor`] could not consider any shape at all
/// (as opposed to declining every too-elongated factorization, which
/// is the `Ok(None)` case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorError {
    /// Zero nodes were requested.
    ZeroNodes,
    /// The aspect bound was zero — no shape can satisfy it.
    ZeroAspect,
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
    /// Returns `None` when every exact factorization is too elongated
    /// (e.g. any prime `n > max_aspect`): an over-stretched chain is a
    /// degenerate mesh, and refusing it forces the caller to choose the
    /// fallback ([`Mesh::near_square`] with spare routers) explicitly
    /// rather than receive a `1 x n` wire by accident.
    pub fn exact_factor(n: usize, max_aspect: usize) -> Option<Self> {
        match Self::try_exact_factor(n, max_aspect) {
            Ok(shape) => shape,
            Err(FactorError::ZeroNodes) => panic!("mesh must hold at least one node"),
            Err(FactorError::ZeroAspect) => panic!("aspect bound must be at least 1"),
        }
    }

    /// Non-panicking [`exact_factor`](Self::exact_factor): the argument
    /// errors the panicking variant asserts on become `Err`, and
    /// `Ok(None)` still means every exact factorization is too
    /// elongated for the aspect bound.
    pub fn try_exact_factor(n: usize, max_aspect: usize) -> Result<Option<Self>, FactorError> {
        if n == 0 {
            return Err(FactorError::ZeroNodes);
        }
        if max_aspect == 0 {
            return Err(FactorError::ZeroAspect);
        }
        // Largest divisor <= sqrt(n) gives the most-square pair.
        let mut rows = (n as f64).sqrt().floor() as usize;
        while rows >= 1 {
            if n % rows == 0 {
                let cols = n / rows;
                return Ok((cols <= rows * max_aspect).then_some(Mesh { cols, rows }));
            }
            rows -= 1;
        }
        Ok(None)
    }

    /// Total node capacity of the mesh.
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// `(x, y)` coordinates of a node.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        debug_assert!(node < self.num_nodes());
        (node % self.cols, node / self.cols)
    }

    /// Node at `(x, y)`.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        debug_assert!(x < self.cols && y < self.rows);
        y * self.cols + x
    }

    /// Manhattan distance in hops.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    fn link(&self, node: NodeId, dir: Dir) -> LinkId {
        node * 4 + dir as usize
    }

    /// Decode a link id to its owning node and unit step `(dx, dy)`.
    /// `wraps` reports whether the step leaves the mesh rectangle
    /// (usable only with torus wraparound).
    fn decode_link(&self, link: LinkId) -> Option<(NodeId, isize, isize, bool)> {
        let node = link / 4;
        if node >= self.num_nodes() {
            return None;
        }
        let (dx, dy): (isize, isize) = match link % 4 {
            0 => (1, 0),  // east
            1 => (-1, 0), // west
            2 => (0, -1), // north
            _ => (0, 1),  // south
        };
        let (x, y) = self.coords(node);
        let wraps = (dx < 0 && x == 0)
            || (dx > 0 && x + 1 == self.cols)
            || (dy < 0 && y == 0)
            || (dy > 0 && y + 1 == self.rows);
        Some((node, dx, dy, wraps))
    }

    /// Directed links of the XY route from `src` to `dst`: X first
    /// (east/west), then Y (north/south).
    pub fn xy_route(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut links = Vec::with_capacity(self.distance(src, dst));
        self.xy_route_into(src, dst, &mut links);
        links
    }

    /// [`xy_route`](Self::xy_route), appended to `links`.
    fn xy_route_into(&self, src: NodeId, dst: NodeId, links: &mut Vec<LinkId>) {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let mut x = sx;
        let y = sy;
        while x < dx {
            links.push(self.link(self.node_at(x, y), Dir::East));
            x += 1;
        }
        while x > dx {
            links.push(self.link(self.node_at(x, y), Dir::West));
            x -= 1;
        }
        let mut y = sy;
        while y < dy {
            links.push(self.link(self.node_at(x, y), Dir::South));
            y += 1;
        }
        while y > dy {
            links.push(self.link(self.node_at(x, y), Dir::North));
            y -= 1;
        }
    }

    /// Wraparound (torus) distance: per dimension, the shorter way
    /// around the ring.
    pub fn torus_distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = ax.abs_diff(bx).min(self.cols - ax.abs_diff(bx));
        let dy = ay.abs_diff(by).min(self.rows - ay.abs_diff(by));
        dx + dy
    }

    /// Dimension-ordered torus route: per dimension, walk the shorter
    /// direction (ties break toward increasing coordinates), wrapping
    /// at the edges.
    pub fn torus_route(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut links = Vec::with_capacity(self.torus_distance(src, dst));
        self.torus_route_into(src, dst, &mut links);
        links
    }

    /// [`torus_route`](Self::torus_route), appended to `links`.
    fn torus_route_into(&self, src: NodeId, dst: NodeId, links: &mut Vec<LinkId>) {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        // X dimension.
        let mut x = sx;
        let fwd = (dx + self.cols - sx) % self.cols; // hops going east
        let go_east = fwd <= self.cols - fwd;
        let steps = fwd.min(self.cols - fwd);
        for _ in 0..steps {
            if go_east {
                links.push(self.link(self.node_at(x, sy), Dir::East));
                x = (x + 1) % self.cols;
            } else {
                links.push(self.link(self.node_at(x, sy), Dir::West));
                x = (x + self.cols - 1) % self.cols;
            }
        }
        // Y dimension.
        let mut y = sy;
        let fwd = (dy + self.rows - sy) % self.rows;
        let go_south = fwd <= self.rows - fwd;
        let steps = fwd.min(self.rows - fwd);
        for _ in 0..steps {
            if go_south {
                links.push(self.link(self.node_at(x, y), Dir::South));
                y = (y + 1) % self.rows;
            } else {
                links.push(self.link(self.node_at(x, y), Dir::North));
                y = (y + self.rows - 1) % self.rows;
            }
        }
    }

    /// The links of a virtual bus spanning every router: a boustrophedon
    /// (serpentine) walk across the mesh, which is how the embedded
    /// broadcasting bus of the V-Bus router threads all nodes without
    /// extra physical wires.
    pub fn serpentine(&self) -> Vec<LinkId> {
        let mut links = Vec::new();
        for y in 0..self.rows {
            if y % 2 == 0 {
                for x in 0..self.cols.saturating_sub(1) {
                    links.push(self.link(self.node_at(x, y), Dir::East));
                }
            } else {
                for x in (1..self.cols).rev() {
                    links.push(self.link(self.node_at(x, y), Dir::West));
                }
            }
            if y + 1 < self.rows {
                let x = if y % 2 == 0 { self.cols - 1 } else { 0 };
                links.push(self.link(self.node_at(x, y), Dir::South));
            }
        }
        links
    }
}

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
        // Primes above the aspect bound refuse rather than chain.
        assert_eq!(Mesh::exact_factor(7, 4), None);
        assert_eq!(Mesh::exact_factor(13, 4), None);
        assert_eq!(Mesh::exact_factor(18, 4), Some(Mesh::new(6, 3)));
        // 2x11 is the squarest exact pair for 22; aspect 5.5 > 4.
        assert_eq!(Mesh::exact_factor(22, 4), None);
        assert_eq!(Mesh::exact_factor(22, 6), Some(Mesh::new(11, 2)));
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

    #[test]
    fn coords_roundtrip() {
        let m = Mesh::new(4, 3);
        for node in 0..m.num_nodes() {
            let (x, y) = m.coords(node);
            assert_eq!(m.node_at(x, y), node);
        }
    }

    #[test]
    fn xy_route_length_is_manhattan_distance() {
        let m = Mesh::new(4, 4);
        for s in 0..16 {
            for d in 0..16 {
                assert_eq!(m.xy_route(s, d).len(), m.distance(s, d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn xy_route_loopback_is_empty() {
        let m = Mesh::new(3, 3);
        for n in 0..9 {
            assert!(m.xy_route(n, n).is_empty());
        }
    }

    #[test]
    fn xy_routes_share_no_link_in_opposite_directions() {
        // A->B and B->A use disjoint directed links.
        let m = Mesh::new(3, 3);
        for s in 0..9 {
            for d in 0..9 {
                if s == d {
                    continue;
                }
                let fwd = m.xy_route(s, d);
                let bwd = m.xy_route(d, s);
                for l in &fwd {
                    assert!(!bwd.contains(l), "{s}<->{d} share directed link {l}");
                }
            }
        }
    }

    #[test]
    fn paper_2x2_mesh_routes() {
        // Paper configuration: 4 nodes in a 2x2 mesh.
        let m = Mesh::near_square(4);
        assert_eq!(m.distance(0, 3), 2); // corner to corner: 2 hops
        assert_eq!(m.distance(0, 1), 1);
        assert_eq!(m.distance(0, 2), 1);
        let route = m.xy_route(0, 3);
        assert_eq!(route.len(), 2);
    }

    #[test]
    fn serpentine_visits_every_node_once() {
        for (c, r) in [(2, 2), (3, 3), (4, 2), (1, 5), (5, 1), (4, 3)] {
            let m = Mesh::new(c, r);
            // A serpentine over n nodes has n-1 links.
            assert_eq!(m.serpentine().len(), m.num_nodes() - 1, "{c}x{r}");
            // And no repeated links.
            let mut links = m.serpentine();
            links.sort_unstable();
            links.dedup();
            assert_eq!(links.len(), m.num_nodes() - 1, "{c}x{r} repeats a link");
        }
    }

    #[test]
    fn torus_distance_uses_wraparound() {
        let m = Mesh::new(4, 4);
        // Corner to corner: 6 hops on the mesh, 2 on the torus.
        assert_eq!(m.distance(0, 15), 6);
        assert_eq!(m.torus_distance(0, 15), 2);
        assert_eq!(m.torus_distance(0, 3), 1, "wrap west beats 3 east");
    }

    #[test]
    fn torus_route_length_matches_torus_distance() {
        let m = Mesh::new(4, 3);
        for s in 0..12 {
            for d in 0..12 {
                assert_eq!(
                    m.torus_route(s, d).len(),
                    m.torus_distance(s, d),
                    "{s}->{d}"
                );
            }
        }
    }

    #[test]
    fn torus_route_lands_on_destination() {
        // Walk the links and verify the path is connected: each link
        // id decodes to (node, dir); replay the walk.
        let m = Mesh::new(5, 4);
        for s in 0..20 {
            for d in 0..20 {
                let mut x = m.coords(s).0;
                let mut y = m.coords(s).1;
                for l in m.torus_route(s, d) {
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
    fn endpoints_chain_along_every_route() {
        // Walking a route link-by-link through endpoints() must trace a
        // connected path from src to dst on every topology that has
        // per-pair links.
        for t in [
            Topology::mesh_for(12),
            Topology::torus_for(12),
            Topology::hypercube_for(8),
            Topology::torus3d_for(12),
            Topology::torus3d_with((3, 2, 2), 11),
            Topology::crossbar_for(9),
            Topology::fattree_for(13),
            Topology::fattree_with(3, 12),
        ] {
            let n = t.num_nodes();
            for s in 0..n {
                for d in 0..n {
                    let mut cur = s;
                    for l in t.route(s, d) {
                        let (from, to) = t
                            .endpoints(l)
                            .unwrap_or_else(|| panic!("{t:?} link {l} undecodable"));
                        assert_eq!(from, cur, "{s}->{d} disconnected at link {l}");
                        cur = to;
                    }
                    assert_eq!(cur, d, "{s}->{d} route endpoint mismatch");
                }
            }
        }
    }

    #[test]
    fn endpoints_reject_edge_and_shared_links() {
        // East link of the mesh's north-east corner leaves the machine.
        let m = Topology::mesh_for(4);
        let corner_east = 4; // node 1 = (1,0), dir east (= 1*4 + 0)
        assert_eq!(m.endpoints(corner_east), None);
        // The same id on the torus wraps around to node 0.
        let t = Topology::torus_for(4);
        assert_eq!(t.endpoints(corner_east), Some((1, 0)));
        assert_eq!(Topology::shared_for(4).endpoints(0), None);
        assert_eq!(m.endpoints(1_000), None);
    }

    #[test]
    fn try_exact_factor_reports_argument_errors() {
        assert_eq!(Mesh::try_exact_factor(0, 4), Err(FactorError::ZeroNodes));
        assert_eq!(Mesh::try_exact_factor(4, 0), Err(FactorError::ZeroAspect));
        assert_eq!(Mesh::try_exact_factor(12, 4), Ok(Some(Mesh::new(4, 3))));
        assert_eq!(Mesh::try_exact_factor(7, 4), Ok(None));
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
