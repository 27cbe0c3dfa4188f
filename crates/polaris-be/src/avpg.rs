//! The array-value-propagation graph (§5.2).
//!
//! "The AVPG … captures the access patterns of arrays referenced in a
//! sequence of consecutive loops. … Each node in a subgraph
//! corresponds to the outermost loop in a loop nest. The nodes are
//! connected according to the program control flow."
//!
//! Node attributes per array:
//!
//! * `Valid` — the array is used in the region;
//! * `Propagate` — not used here, but used by a later region;
//! * `Invalid` — not used here and never used again.
//!
//! The planner consumes the attributes for the two §5.2 eliminations:
//! a `Valid → … → Invalid` tail drops the data-collecting, and
//! communication is *delayed* across `Propagate` nodes (no scatter
//! until the next `Valid` use).

use std::collections::BTreeMap;

use lmad::ArrayId;
use polaris_fe::analysis::{AnalyzedProgram, Region};

/// Per-(region, array) attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAttr {
    Valid,
    Propagate,
    Invalid,
}

/// One AVPG node (a top-level region in control-flow order).
#[derive(Debug, Clone, Default)]
pub struct AvpgNode {
    pub attrs: BTreeMap<ArrayId, NodeAttr>,
}

/// The graph: one node per region, one subgraph per array (the
/// per-array attribute sequence).
#[derive(Debug, Clone, Default)]
pub struct Avpg {
    pub nodes: Vec<AvpgNode>,
}

impl Avpg {
    /// Attribute of `array` at region `i`.
    pub fn attr(&self, region: usize, array: ArrayId) -> NodeAttr {
        self.nodes[region]
            .attrs
            .get(&array)
            .copied()
            .unwrap_or(NodeAttr::Invalid)
    }
}

/// Build the AVPG of an analysed program: a backward liveness sweep
/// over the region sequence.
pub(crate) fn build_avpg(analyzed: &AnalyzedProgram) -> Avpg {
    let arrays: Vec<ArrayId> = (0..analyzed.symbols.arrays.len()).map(ArrayId).collect();
    let n = analyzed.regions.len();
    let mut nodes = vec![AvpgNode::default(); n];
    for &a in &arrays {
        let mut live = false; // live after the last region?
        for i in (0..n).rev() {
            let used = uses_array(&analyzed.regions[i], a);
            let attr = if used {
                NodeAttr::Valid
            } else if live {
                NodeAttr::Propagate
            } else {
                NodeAttr::Invalid
            };
            nodes[i].attrs.insert(a, attr);
            live = live || used;
        }
    }
    Avpg { nodes }
}

fn uses_array(region: &Region, a: ArrayId) -> bool {
    region.reads().contains(&a) || region.writes().contains(&a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_fe::compile;

    /// Three consecutive loops mimicking Figure 7: A used in loops 0
    /// and 3; B used in 0 only; C used in 1 and 2.
    const FIG7: &str = r"
      PROGRAM FIG7
      PARAMETER (N = 16)
      REAL A(N), B(N), C(N)
      INTEGER I
      DO I = 1, N
        A(I) = 1.0
        B(I) = 2.0
      ENDDO
      DO I = 1, N
        C(I) = 3.0
      ENDDO
      DO I = 1, N
        C(I) = C(I) + 1.0
      ENDDO
      DO I = 1, N
        A(I) = A(I) * 2.0
      ENDDO
      END
";

    #[test]
    fn figure7_attributes() {
        let analyzed = compile(FIG7, &[]).unwrap();
        assert_eq!(analyzed.num_parallel(), 4, "{:?}", analyzed.serial_reasons);
        let g = build_avpg(&analyzed);
        let a = ArrayId(analyzed.symbols.array_id("A").unwrap());
        let b = ArrayId(analyzed.symbols.array_id("B").unwrap());
        let c = ArrayId(analyzed.symbols.array_id("C").unwrap());
        // A: valid, propagate, propagate, valid.
        assert_eq!(g.attr(0, a), NodeAttr::Valid);
        assert_eq!(g.attr(1, a), NodeAttr::Propagate);
        assert_eq!(g.attr(2, a), NodeAttr::Propagate);
        assert_eq!(g.attr(3, a), NodeAttr::Valid);
        // B: valid then invalid forever.
        assert_eq!(g.attr(0, b), NodeAttr::Valid);
        assert_eq!(g.attr(1, b), NodeAttr::Invalid);
        assert_eq!(g.attr(3, b), NodeAttr::Invalid);
        // C: propagate (used in a subsequent loop), valid, valid,
        // invalid.
        assert_eq!(g.attr(0, c), NodeAttr::Propagate);
        assert_eq!(g.attr(1, c), NodeAttr::Valid);
        assert_eq!(g.attr(2, c), NodeAttr::Valid);
        assert_eq!(g.attr(3, c), NodeAttr::Invalid);
    }
}
