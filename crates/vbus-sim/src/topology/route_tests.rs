//! The routing contract of the grid topologies and the hypercube.
//!
//! Trace lanes name links by id (`link 5`), so a route's link ids are
//! visible output. One digest pins `route`, `hops`, `num_links` and
//! `diameter` over every ordered pair of a ladder of shapes; the
//! property beside it says what those numbers mean: a route is a chain
//! of neighbouring cells, one dimension after another, that ends at
//! its destination, its length is `hops`, and `diameter` is the
//! largest `hops` of the full shape.

use super::*;

/// FNV-1a, 64 bit (the digest of `tests/byte_matrix.rs`), fed whole
/// words little-endian.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: usize) {
        for b in (w as u64).to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Mesh and torus `cols × rows` in 1..=8, 3-D torus dimensions in
/// 1..=5, hypercubes of 2⁰..2⁷ nodes, and partly filled grids.
fn ladder() -> Vec<Topology> {
    let mut ts = Vec::new();
    for cols in 1..=8 {
        for rows in 1..=8 {
            let mesh = Mesh::new(cols, rows);
            ts.push(Topology::mesh_with(mesh, mesh.num_nodes()));
            ts.push(Topology::Torus { mesh, nodes: mesh.num_nodes() });
        }
    }
    for x in 1..=5 {
        for y in 1..=5 {
            for z in 1..=5 {
                ts.push(Topology::torus3d_with((x, y, z), x * y * z));
            }
        }
    }
    for d in 0..=7 {
        ts.push(Topology::hypercube_for(1 << d));
    }
    for (cols, rows, n) in [(4, 4, 13), (5, 3, 11), (8, 7, 50), (3, 1, 2), (1, 6, 4)] {
        ts.push(Topology::mesh_with(Mesh::new(cols, rows), n));
    }
    for n in [3, 7, 13] {
        ts.push(Topology::torus_for(n));
    }
    for (dims, n) in [((3, 2, 2), 11), ((4, 3, 2), 19), ((5, 5, 5), 101), ((2, 5, 3), 7)] {
        ts.push(Topology::torus3d_with(dims, n));
    }
    ts
}

#[test]
fn routes_hops_and_diameters_keep_their_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for t in ladder() {
        h.word(t.num_links());
        h.word(t.diameter());
        let n = t.num_nodes();
        for s in 0..n {
            for d in 0..n {
                h.word(t.hops(s, d));
                let route = t.route(s, d);
                h.word(route.len());
                for l in route {
                    h.word(l);
                }
            }
        }
    }
    assert_eq!(h.0, 0x9369_1da4_5c06_2eec, "digest {:#018x}", h.0);
}

/// A link decoded by hand: `(from, dimension, to)`.
type Hop = (usize, usize, usize);

/// A decoder for `t`'s links, built from the port tables link ids are
/// numbered by: grid cell `c` owns links `c·2D .. c·2D + 2D`, and
/// `ports[d]` is its `[+, −]` link along dimension `d` (2-D: east,
/// west; south, north). A hypercube node owns one link per dimension.
/// Also returns the number of cells of the full shape.
fn decoder(t: &Topology) -> (Box<dyn Fn(usize) -> Hop>, usize) {
    fn grid(
        shape: Vec<usize>,
        wrap: bool,
        ports: &'static [[usize; 2]],
    ) -> Box<dyn Fn(usize) -> Hop> {
        let stride = 2 * shape.len();
        Box::new(move |l| {
            let (cell, port) = (l / stride, l % stride);
            let dim = ports.iter().position(|p| p.contains(&port)).expect("a port of the table");
            let plus = ports[dim][0] == port;
            let below: usize = shape[..dim].iter().product();
            let (size, x) = (shape[dim], cell / below % shape[dim]);
            let nx = match (plus, wrap) {
                (true, true) => (x + 1) % size,
                (false, true) => (x + size - 1) % size,
                (true, false) => {
                    assert!(x + 1 < size, "link {l} leaves the mesh");
                    x + 1
                }
                (false, false) => {
                    x.checked_sub(1).unwrap_or_else(|| panic!("link {l} leaves the mesh"))
                }
            };
            (cell, dim, cell - x * below + nx * below)
        })
    }
    const PORTS_2D: &[[usize; 2]] = &[[0, 1], [3, 2]];
    const PORTS_3D: &[[usize; 2]] = &[[0, 1], [2, 3], [4, 5]];
    match *t {
        Topology::Mesh { mesh, .. } => {
            (grid(vec![mesh.cols, mesh.rows], false, PORTS_2D), mesh.num_nodes())
        }
        Topology::Torus { mesh, .. } => {
            (grid(vec![mesh.cols, mesh.rows], true, PORTS_2D), mesh.num_nodes())
        }
        Topology::Torus3d { dims: (x, y, z), .. } => {
            (grid(vec![x, y, z], true, PORTS_3D), x * y * z)
        }
        Topology::Hypercube { dims, .. } => {
            let dims = dims as usize;
            (Box::new(move |l| (l / dims, l % dims, (l / dims) ^ (1 << (l % dims)))), 1 << dims)
        }
        _ => unreachable!("not on the ladder: {t:?}"),
    }
}

#[test]
fn every_route_walks_neighbours_in_dimension_order_to_its_destination() {
    for t in ladder() {
        let (decode, cells) = decoder(&t);
        let n = t.num_nodes();
        let mut widest = 0;
        for s in 0..n {
            for d in 0..n {
                let route = t.route(s, d);
                assert_eq!(route.len(), t.hops(s, d), "{t:?} {s}->{d}");
                widest = widest.max(route.len());
                let (mut cur, mut dim) = (s, 0);
                for &l in &route {
                    assert!(l < t.num_links(), "{t:?} {s}->{d}: link {l}");
                    let (from, ld, to) = decode(l);
                    assert_eq!(from, cur, "{t:?} {s}->{d} breaks at link {l}");
                    assert!(ld >= dim, "{t:?} {s}->{d} goes back a dimension at link {l}");
                    (cur, dim) = (to, ld);
                }
                assert_eq!(cur, d, "{t:?} {s}->{d} ends at {cur}");
            }
        }
        if n == cells {
            assert_eq!(t.diameter(), widest, "{t:?}");
        } else {
            assert!(t.diameter() >= widest, "{t:?}");
        }
    }
}
