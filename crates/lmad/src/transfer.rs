//! Communication granularity (§5.6): lowering an access region to a
//! list of PUT/GET-shaped transfers at fine, middle or coarse grain.
//!
//! * **Fine** — exact regions: one transfer per `A_offsets` entry with
//!   the `A_mapping` shape (strided PUT/GET when the mapping stride
//!   exceeds 1, contiguous otherwise).
//! * **Middle** — per-offset approximate regions: "exact regions are
//!   converted into approximate regions by setting the stride of
//!   `A_mapping` 1", i.e. each offset transfers the bounding
//!   contiguous run of its mapping dimension. Same message count as
//!   fine, but always on the DMA path, at the price of redundant
//!   bytes.
//! * **Coarse** — one approximate region: a single contiguous transfer
//!   bounding the whole descriptor, reducing the message count to
//!   `δp/αp + 1`-independent *one* per (array, slave) pair.

use crate::descriptor::Lmad;
use crate::sweep;

/// The three §5.6 communication granularities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    Fine,
    Middle,
    Coarse,
}

impl Granularity {
    /// All levels, for sweeps.
    pub const ALL: [Granularity; 3] = [Granularity::Fine, Granularity::Middle, Granularity::Coarse];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::Fine => "fine",
            Granularity::Middle => "middle",
            Granularity::Coarse => "coarse",
        }
    }
}

/// One wire transfer: `count` elements starting at `offset`, every
/// `stride` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionTransfer {
    pub offset: i64,
    pub stride: u64,
    pub count: u64,
}

impl RegionTransfer {
    /// Contiguous transfers ride the DMA engine; strided ones pay
    /// programmed I/O.
    pub fn is_contiguous(&self) -> bool {
        self.stride == 1 || self.count <= 1
    }

    /// Elements crossing the wire.
    pub fn elems(&self) -> u64 {
        self.count
    }

    /// Highest element offset touched, exclusive.
    pub fn end(&self) -> i64 {
        self.offset + (self.stride * (self.count - 1) + 1) as i64
    }
}

/// A lowered communication plan for one access region.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferPlan {
    pub granularity: Granularity,
    pub transfers: Vec<RegionTransfer>,
    /// Elements the exact region actually needs (for redundancy
    /// accounting).
    pub exact_elems: u64,
}

impl TransferPlan {
    /// Lower `region` at `granularity`.
    ///
    /// # Panics
    /// Panics if fine/middle lowering would enumerate more than
    /// `offset_limit` start offsets (a plan that large is a compiler
    /// bug, not a workload property).
    pub fn lower(region: &Lmad, granularity: Granularity, offset_limit: u64) -> TransferPlan {
        let n = region.normalized();
        let exact_elems = n.distinct_elements(offset_limit);
        let transfers = match granularity {
            Granularity::Coarse => {
                let (lo, hi) = n.extent();
                vec![RegionTransfer {
                    offset: lo,
                    stride: 1,
                    count: (hi - lo + 1) as u64,
                }]
            }
            Granularity::Fine | Granularity::Middle => {
                let split = n.split();
                let offsets = split
                    .offset_list(offset_limit)
                    .unwrap_or_else(|| {
                        panic!(
                            "transfer plan would need more than {offset_limit} messages \
                             for region {n}"
                        )
                    });
                let (stride, count) = match granularity {
                    Granularity::Fine => (split.mapping.stride as u64, split.mapping.count),
                    Granularity::Middle => {
                        // Stride forced to 1: bounding run of the
                        // mapping dimension.
                        (1, split.mapping.span() as u64 + 1)
                    }
                    Granularity::Coarse => unreachable!(),
                };
                offsets
                    .into_iter()
                    .map(|offset| RegionTransfer {
                        offset,
                        stride,
                        count,
                    })
                    .collect()
            }
        };
        TransferPlan {
            granularity,
            transfers,
            exact_elems,
        }
    }

    /// Number of PUT/GET messages (communication setups).
    pub fn num_messages(&self) -> usize {
        self.transfers.len()
    }

    /// Elements crossing the wire in total.
    pub fn total_elems(&self) -> u64 {
        self.transfers.iter().map(RegionTransfer::elems).sum()
    }

    /// Wire elements divided by needed elements (1.0 = exact; the
    /// paper's CFFT2INIT middle-grain case is 2.0: "50% of
    /// communication was used to transfer redundant data").
    pub fn redundancy(&self) -> f64 {
        self.total_elems() as f64 / self.exact_elems.max(1) as f64
    }

    /// Number of strided (programmed-I/O) messages in the plan.
    pub fn strided_messages(&self) -> usize {
        self.transfers
            .iter()
            .filter(|t| !t.is_contiguous())
            .count()
    }
}

/// §5.6 safety check for coarse/middle data collection: when the
/// approximate regions of different slaves overlap, contiguous
/// collection would let one slave's redundant bytes overwrite
/// another's fresh values ("a race condition"), so collection must
/// fall back to the fine grain.
///
/// Takes each slave's *approximate* (bounding) collected region.
pub fn any_overlap(regions: &[Lmad]) -> bool {
    let extents: Vec<(i64, i64)> = regions.iter().map(Lmad::extent).collect();
    sweep::any_overlapping_pair(&extents, |i, j| regions[i].overlaps(&regions[j]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Dim;

    /// A slave's stride-2 footprint (the CFFT2INIT shape): elements
    /// 0,2,4,...,14.
    fn stride2() -> Lmad {
        Lmad::strided(0, 2, 8)
    }

    /// A slave's block-of-rows footprint in a column-major matrix:
    /// 4 contiguous elements per column, 6 columns of height 16.
    fn row_block() -> Lmad {
        Lmad::new(0, vec![Dim::new(1, 4), Dim::new(16, 6)])
    }

    #[test]
    fn fine_on_stride2_uses_one_strided_message() {
        let p = TransferPlan::lower(&stride2(), Granularity::Fine, 1 << 20);
        assert_eq!(p.num_messages(), 1);
        assert_eq!(p.strided_messages(), 1);
        assert_eq!(p.total_elems(), 8);
        assert_eq!(p.redundancy(), 1.0);
    }

    #[test]
    fn middle_on_stride2_doubles_the_data_but_goes_contiguous() {
        // The paper's CFFT2INIT observation: stride-2 LMADs at middle
        // grain move 50% redundant data on the DMA path.
        let p = TransferPlan::lower(&stride2(), Granularity::Middle, 1 << 20);
        assert_eq!(p.num_messages(), 1);
        assert_eq!(p.strided_messages(), 0);
        assert_eq!(p.total_elems(), 15);
        assert!((p.redundancy() - 15.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn coarse_is_one_bounding_message() {
        let p = TransferPlan::lower(&row_block(), Granularity::Coarse, 1 << 20);
        assert_eq!(p.num_messages(), 1);
        assert_eq!(p.strided_messages(), 0);
        // Extent: 0 ..= 3 + 16*5 = 83 -> 84 elements.
        assert_eq!(p.total_elems(), 84);
        assert_eq!(p.exact_elems, 24);
    }

    #[test]
    fn fine_on_row_block_is_one_message_per_column() {
        let p = TransferPlan::lower(&row_block(), Granularity::Fine, 1 << 20);
        assert_eq!(p.num_messages(), 6);
        assert_eq!(p.strided_messages(), 0, "unit-stride mapping is DMA");
        assert_eq!(p.total_elems(), 24);
        assert_eq!(p.redundancy(), 1.0);
        assert_eq!(
            p.transfers.iter().map(|t| t.offset).collect::<Vec<_>>(),
            vec![0, 16, 32, 48, 64, 80]
        );
    }

    #[test]
    fn middle_equals_fine_when_mapping_already_contiguous() {
        let f = TransferPlan::lower(&row_block(), Granularity::Fine, 1 << 20);
        let m = TransferPlan::lower(&row_block(), Granularity::Middle, 1 << 20);
        assert_eq!(f.transfers, m.transfers);
    }

    #[test]
    fn message_counts_match_paper_formula() {
        // Paper: fine/middle messages = product of outer dim counts;
        // coarse = 1.
        let l = Lmad::new(
            0,
            vec![Dim::new(3, 4), Dim::new(14, 2), Dim::new(28, 5)],
        );
        let fine = TransferPlan::lower(&l, Granularity::Fine, 1 << 20);
        assert_eq!(fine.num_messages(), 2 * 5);
        let coarse = TransferPlan::lower(&l, Granularity::Coarse, 1 << 20);
        assert_eq!(coarse.num_messages(), 1);
    }

    #[test]
    fn scalar_region_plans() {
        let l = Lmad::scalar(5);
        for g in Granularity::ALL {
            let p = TransferPlan::lower(&l, g, 16);
            assert_eq!(p.num_messages(), 1, "{g:?}");
            assert_eq!(p.total_elems(), 1, "{g:?}");
            assert!(p.transfers[0].is_contiguous());
        }
    }

    #[test]
    fn transfers_cover_the_exact_region() {
        // Every exact offset must fall inside some transfer of every
        // granularity.
        for region in [stride2(), row_block()] {
            let offs = region.offsets(1 << 20).unwrap();
            for g in Granularity::ALL {
                let p = TransferPlan::lower(&region, g, 1 << 20);
                for &o in &offs {
                    let covered = p.transfers.iter().any(|t| {
                        o >= t.offset
                            && o < t.end()
                            && (o - t.offset) as u64 % t.stride == 0
                    });
                    assert!(covered, "{g:?} misses offset {o}");
                }
            }
        }
    }

    #[test]
    fn overlap_check_detects_collision() {
        // Two slaves' coarse bounding regions interleave.
        let s0 = Lmad::strided(0, 4, 8).bounding_contiguous();
        let s1 = Lmad::strided(2, 4, 8).bounding_contiguous();
        assert!(any_overlap(&[s0, s1]));
        // Block-disjoint slaves are safe.
        let b0 = Lmad::contiguous(0, 16);
        let b1 = Lmad::contiguous(16, 16);
        assert!(!any_overlap(&[b0, b1]));
        assert!(!any_overlap(&[]));
    }

    #[test]
    #[should_panic(expected = "transfer plan would need more than")]
    fn plan_size_guard() {
        let l = Lmad::new(0, vec![Dim::new(1, 2), Dim::new(10, 1000)]);
        TransferPlan::lower(&l, Granularity::Fine, 10);
    }

    #[test]
    fn granularity_names() {
        assert_eq!(Granularity::Fine.name(), "fine");
        assert_eq!(Granularity::Middle.name(), "middle");
        assert_eq!(Granularity::Coarse.name(), "coarse");
    }
}
