//! Rectangular partition allocation on the machine mesh.
//!
//! The machine is an `n`-node near-square mesh (positions with id
//! `>= n` are routers without a PC and are never allocatable). A job
//! of `r` ranks asks for the rectangle
//! `cluster_sim::try_partition_shape(r)` prescribes; the allocator
//! scans anchors row-major (first fit), trying the prescribed
//! orientation first and its transpose second — both deterministic,
//! so placement is a pure function of the request sequence. Crashed
//! nodes are *drained*: their cells never satisfy a fit again for the
//! rest of the batch.

use vbus_sim::{Mesh, NodeId};

/// One allocated rectangle: anchor, shape, and the machine node ids it
/// reserves (row-major within the rectangle; job rank `i` executes on
/// `nodes[i]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Anchor column on the machine mesh.
    pub x: usize,
    /// Anchor row on the machine mesh.
    pub y: usize,
    /// Shape as placed (possibly the transpose of the requested one).
    pub shape: Mesh,
    pub nodes: Vec<NodeId>,
}

impl Partition {
    /// Do two rectangles share any cell?
    pub fn overlaps(&self, other: &Partition) -> bool {
        let disjoint_x =
            self.x + self.shape.cols <= other.x || other.x + other.shape.cols <= self.x;
        let disjoint_y =
            self.y + self.shape.rows <= other.y || other.y + other.shape.rows <= self.y;
        !(disjoint_x || disjoint_y)
    }
}

/// The machine as a grid of allocatable cells.
#[derive(Debug, Clone)]
pub struct NodeMap {
    mesh: Mesh,
    nodes: usize,
    busy: Vec<bool>,
    drained: Vec<bool>,
    /// Remaining probation intervals per cell: `> 0` means the cell is
    /// drained but will reintegrate once the counter ticks down to 0.
    /// `0` on a drained cell means the drain is permanent.
    probation: Vec<u32>,
}

impl NodeMap {
    /// A machine of `nodes` PCs on `mesh` (positions `nodes..` are
    /// phantom router cells, never allocatable).
    pub fn new(mesh: Mesh, nodes: usize) -> Self {
        assert!(nodes >= 1 && nodes <= mesh.num_nodes());
        NodeMap {
            mesh,
            nodes,
            busy: vec![false; mesh.num_nodes()],
            drained: vec![false; mesh.num_nodes()],
            probation: vec![0; mesh.num_nodes()],
        }
    }

    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Number of PCs that have not been drained.
    pub fn usable_nodes(&self) -> usize {
        (0..self.nodes).filter(|&c| !self.drained[c]).count()
    }

    /// Drained node ids, ascending.
    pub fn drained(&self) -> Vec<NodeId> {
        (0..self.nodes).filter(|&c| self.drained[c]).collect()
    }

    fn cell_free(&self, x: usize, y: usize) -> bool {
        let c = self.mesh.node_at(x, y);
        c < self.nodes && !self.busy[c] && !self.drained[c]
    }

    fn rect_fits(&self, x: usize, y: usize, shape: Mesh) -> bool {
        if x + shape.cols > self.mesh.cols || y + shape.rows > self.mesh.rows {
            return false;
        }
        (0..shape.rows).all(|dy| (0..shape.cols).all(|dx| self.cell_free(x + dx, y + dy)))
    }

    /// First-fit anchor scan for `shape`: row-major anchors, requested
    /// orientation first, transpose second. Returns the placement
    /// without allocating it.
    pub fn find_fit(&self, shape: Mesh) -> Option<(usize, usize, Mesh)> {
        let transpose = Mesh { cols: shape.rows, rows: shape.cols };
        for s in [shape, transpose] {
            for y in 0..self.mesh.rows.saturating_sub(s.rows - 1) {
                for x in 0..self.mesh.cols.saturating_sub(s.cols - 1) {
                    if self.rect_fits(x, y, s) {
                        return Some((x, y, s));
                    }
                }
            }
            if shape.cols == shape.rows {
                break; // square: the transpose is the same scan
            }
        }
        None
    }

    /// Could `shape` ever be placed on the *empty* machine given the
    /// current drains? `false` means a queued job is permanently
    /// infeasible, not merely waiting.
    pub fn feasible(&self, shape: Mesh) -> bool {
        let empty = NodeMap {
            mesh: self.mesh,
            nodes: self.nodes,
            busy: vec![false; self.mesh.num_nodes()],
            drained: self.drained.clone(),
            probation: self.probation.clone(),
        };
        empty.find_fit(shape).is_some()
    }

    /// Allocate the placement `find_fit` returned.
    pub fn alloc(&mut self, x: usize, y: usize, shape: Mesh) -> Partition {
        debug_assert!(self.rect_fits(x, y, shape));
        let mut nodes = Vec::with_capacity(shape.num_nodes());
        for dy in 0..shape.rows {
            for dx in 0..shape.cols {
                let c = self.mesh.node_at(x + dx, y + dy);
                self.busy[c] = true;
                nodes.push(c);
            }
        }
        Partition { x, y, shape, nodes }
    }

    /// Release a partition's cells (drained cells stay drained).
    pub fn free(&mut self, p: &Partition) {
        for &c in &p.nodes {
            self.busy[c] = false;
        }
    }

    /// Permanently remove a crashed node from service.
    pub fn drain(&mut self, node: NodeId) {
        assert!(node < self.nodes, "cannot drain phantom cell {node}");
        self.drained[node] = true;
        self.probation[node] = 0;
    }

    /// Drain a crashed node *on probation*: it stays out of service
    /// for `intervals` clean scheduler intervals (ticked by
    /// [`NodeMap::tick_probation`]), then reintegrates. `intervals`
    /// must be >= 1 — a zero-interval probation is just not draining.
    pub fn drain_probation(&mut self, node: NodeId, intervals: u32) {
        assert!(node < self.nodes, "cannot drain phantom cell {node}");
        assert!(intervals >= 1, "probation needs at least one interval");
        // A permanent drain is never downgraded to probation.
        if self.drained[node] && self.probation[node] == 0 {
            return;
        }
        self.drained[node] = true;
        self.probation[node] = self.probation[node].max(intervals);
    }

    /// One clean interval elapsed: tick every probationary cell down
    /// and reintegrate those whose counter reaches 0. Returns the
    /// reintegrated node ids, ascending — deterministic, so callers
    /// can journal them.
    pub fn tick_probation(&mut self) -> Vec<NodeId> {
        let mut healed = Vec::new();
        for c in 0..self.nodes {
            if self.probation[c] == 0 {
                continue;
            }
            self.probation[c] -= 1;
            if self.probation[c] == 0 {
                self.drained[c] = false;
                healed.push(c);
            }
        }
        healed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map16() -> NodeMap {
        NodeMap::new(Mesh::new(4, 4), 16)
    }

    #[test]
    fn first_fit_packs_row_major_without_overlap() {
        let mut m = map16();
        let mut parts = Vec::new();
        for _ in 0..8 {
            let (x, y, s) = m.find_fit(Mesh::new(2, 1)).expect("fits");
            parts.push(m.alloc(x, y, s));
        }
        // 8 2x1 partitions tile the 4x4 machine exactly.
        assert!(m.find_fit(Mesh::new(1, 1)).is_none());
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
            }
        }
        assert_eq!(parts[0].nodes, vec![0, 1]);
        m.free(&parts[3]);
        let (x, y, s) = m.find_fit(Mesh::new(2, 1)).unwrap();
        assert_eq!(m.alloc(x, y, s), parts[3], "freed hole is refilled first-fit");
    }

    #[test]
    fn transposed_orientation_is_tried_second() {
        let mut m = map16();
        // Fill the top three rows entirely.
        let (x, y, s) = m.find_fit(Mesh::new(4, 3)).unwrap();
        m.alloc(x, y, s);
        // A 1x4-shaped request only fits the remaining row transposed.
        let (_, y, s) = m.find_fit(Mesh::new(1, 4)).expect("transpose fits");
        assert_eq!((s.cols, s.rows), (4, 1));
        assert_eq!(y, 3);
    }

    #[test]
    fn phantom_cells_never_allocate() {
        // 13 nodes on a 4x4 grid: cells 13..16 are routers only.
        let mut m = NodeMap::new(Mesh::new(4, 4), 13);
        assert!(m.find_fit(Mesh::new(4, 4)).is_none(), "phantom row blocks 4x4");
        assert!(!m.feasible(Mesh::new(4, 4)));
        let (x, y, s) = m.find_fit(Mesh::new(4, 3)).expect("top rows are whole");
        let p = m.alloc(x, y, s);
        assert!(p.nodes.iter().all(|&c| c < 13));
        // The bottom row only has node 12: a single cell still fits there.
        let (x, y, s) = m.find_fit(Mesh::new(1, 1)).unwrap();
        assert_eq!(m.alloc(x, y, s).nodes, vec![12]);
        assert!(m.find_fit(Mesh::new(1, 1)).is_none());
    }

    #[test]
    fn drain_removes_cells_for_good() {
        let mut m = map16();
        m.drain(5);
        assert_eq!(m.usable_nodes(), 15);
        assert_eq!(m.drained(), vec![5]);
        // A full-machine rectangle is now permanently infeasible...
        assert!(!m.feasible(Mesh::new(4, 4)));
        // ...but smaller rectangles route around the drained cell.
        let (x, y, s) = m.find_fit(Mesh::new(4, 1)).unwrap();
        assert_eq!(y, 0);
        let p = m.alloc(x, y, s);
        assert!(!p.nodes.contains(&5));
        m.free(&p);
        // Freeing never resurrects a drained cell.
        assert!(!m.feasible(Mesh::new(4, 4)));
    }

    #[test]
    fn probation_drains_then_reintegrates_after_clean_intervals() {
        let mut m = map16();
        m.drain_probation(5, 2);
        assert_eq!(m.drained(), vec![5], "probationary cells are out of service");
        assert!(!m.feasible(Mesh::new(4, 4)));
        assert_eq!(m.tick_probation(), vec![], "one clean interval is not enough");
        assert_eq!(m.drained(), vec![5]);
        assert_eq!(m.tick_probation(), vec![5], "second interval reintegrates");
        assert_eq!(m.drained(), vec![]);
        assert!(m.feasible(Mesh::new(4, 4)), "the healed cell allocates again");

        // A permanent drain is never downgraded by a later probation,
        // and re-draining a probationary cell extends, not shortens.
        m.drain(3);
        m.drain_probation(3, 1);
        assert_eq!(m.tick_probation(), vec![]);
        assert_eq!(m.drained(), vec![3], "permanent means permanent");
        m.drain_probation(7, 3);
        m.drain_probation(7, 1);
        assert_eq!(m.tick_probation(), vec![]);
        assert_eq!(m.tick_probation(), vec![]);
        assert_eq!(m.tick_probation(), vec![7], "the longer probation wins");
    }
}
