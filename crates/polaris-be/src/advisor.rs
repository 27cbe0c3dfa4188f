//! Granularity advice (§5.6).
//!
//! "For now, it is up to the user that selects the optimal granularity
//! to minimize the communication time. The profiling tools recently
//! provided in Polaris would be useful to guide the user when such
//! decision should be made."
//!
//! This module is that guide: a static cost estimator over the
//! compiled communication plans. For each granularity it prices every
//! region boundary as
//!
//! * host setup — DMA descriptor per contiguous message, per-element
//!   programmed I/O for strided ones; scatter setups serialise on the
//!   master (push mode), collect setups parallelise across slaves;
//! * wire time — total bytes over the effective link bandwidth into /
//!   out of the master (its injection links are the bottleneck of the
//!   master/slave pattern).
//!
//! The estimate deliberately ignores contention detail — it ranks
//! granularities, it does not predict absolute seconds. The
//! simulation-backed selector in the `vpce` facade (`advise_granularity`)
//! is the precise version; tests pin the two to the same winner on the
//! paper workloads.

use lmad::Granularity;
use polaris_fe::analysis::AnalyzedProgram;

use crate::{compile_backend, BackendOptions, CompiledProgram};

/// Cost parameters for the static estimate.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Host cost per contiguous message (post + DMA setup), seconds.
    pub per_message_s: f64,
    /// Host cost per strided element (programmed I/O), seconds.
    pub per_pio_elem_s: f64,
    /// Effective bandwidth in/out of the master, bytes/second.
    pub master_bandwidth_bps: f64,
}

impl CostParams {
    /// Parameters matching the paper's card
    /// (`cluster_sim::NicModel::vbus_card` + two mesh links at the
    /// master).
    pub fn paper_card() -> Self {
        CostParams {
            per_message_s: 13.0e-6,
            per_pio_elem_s: 0.6e-6,
            master_bandwidth_bps: 2.0 * 50.0e6,
        }
    }
}

/// The advice: predicted communication seconds per granularity, the
/// recommendation, and the recommended plan itself — the estimator
/// compiles all three to price them, so a caller who goes on to run
/// the winner need not plan it again.
#[derive(Debug, Clone)]
pub struct GranularityAdvice {
    /// `(granularity, predicted seconds)` in `Granularity::ALL` order.
    pub predictions: Vec<(Granularity, f64)>,
    /// The cheapest prediction (the first such in `Granularity::ALL`
    /// order).
    pub recommended: Granularity,
    /// The recommended granularity's compiled program.
    pub compiled: CompiledProgram,
}

/// Statically estimate the communication cost of one compiled plan
/// set.
pub fn estimate_comm_cost(
    program: &spmd_rt::SpmdProgram,
    cost: &CostParams,
) -> f64 {
    let mut total = 0.0;
    for region in program.regions() {
        // Scatter: in push mode every setup runs on the master,
        // serially.
        let mut master_host = 0.0;
        let mut scatter_bytes = 0u64;
        for ops in &region.scatter.per_rank {
            for op in ops {
                master_host += msg_host(op, cost, region.pull_scatter);
                scatter_bytes += op.transfer.elems() * 8;
            }
        }
        // In pull mode the same setups spread across the slaves: the
        // critical path is the busiest slave.
        if region.pull_scatter {
            let busiest = region
                .scatter
                .per_rank
                .iter()
                .map(|ops| {
                    ops.iter()
                        .map(|op| msg_host(op, cost, true))
                        .sum::<f64>()
                })
                .fold(0.0, f64::max);
            master_host = busiest;
        }
        // Collect: setups parallelise across slaves; the critical path
        // is the busiest slave.
        let collect_host = region
            .collect
            .per_rank
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|op| msg_host(op, cost, false))
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        let collect_bytes: u64 = region
            .collect
            .per_rank
            .iter()
            .flatten()
            .map(|op| op.transfer.elems() * 8)
            .sum();
        total += master_host
            + collect_host
            + (scatter_bytes + collect_bytes) as f64 / cost.master_bandwidth_bps;
    }
    total
}

fn msg_host(op: &spmd_rt::CommOp, cost: &CostParams, _pull: bool) -> f64 {
    if op.transfer.is_contiguous() {
        cost.per_message_s
    } else {
        cost.per_message_s + op.transfer.elems() as f64 * cost.per_pio_elem_s
    }
}

/// Compile at every granularity and rank them by the static estimate.
pub fn advise(
    analyzed: &AnalyzedProgram,
    base: &BackendOptions,
    cost: &CostParams,
) -> GranularityAdvice {
    let mut predictions = Vec::with_capacity(3);
    let mut best: Option<(Granularity, f64, CompiledProgram)> = None;
    for g in Granularity::ALL {
        let compiled = compile_backend(analyzed, &base.clone().granularity(g));
        let predicted = estimate_comm_cost(&compiled.program, cost);
        predictions.push((g, predicted));
        // Strictly cheaper only: ties keep the earlier granularity.
        if best
            .as_ref()
            .is_none_or(|(_, b, _)| predicted.total_cmp(b).is_lt())
        {
            best = Some((g, predicted, compiled));
        }
    }
    let (recommended, _, compiled) = best.expect("three candidates");
    GranularityAdvice {
        predictions,
        recommended,
        compiled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advise_src(src: &str, params: &[(&str, i64)]) -> GranularityAdvice {
        let analyzed = polaris_fe::compile(src, params).unwrap();
        advise(
            &analyzed,
            &BackendOptions::new(4),
            &CostParams::paper_card(),
        )
    }

    #[test]
    fn cfft_advice_is_coarse() {
        // The paper-size CFFT2INIT: coarse merges the interleaved
        // stride-2 halves exactly.
        let a = advise_src(
            "PROGRAM C\nPARAMETER (M = 11, N = 2**M)\nREAL W(2*N)\nINTEGER I\n\
             DO I = 1, N\nW(2*I-1) = 1.0\nW(2*I) = 2.0\nENDDO\nEND\n",
            &[],
        );
        assert_eq!(a.recommended, Granularity::Coarse, "{:?}", a.predictions);
        // And fine (strided PIO) is predicted worst.
        let fine = a.predictions[0].1;
        assert!(a.predictions.iter().all(|&(_, c)| c <= fine));
    }

    #[test]
    fn predictions_are_positive_and_complete() {
        let a = advise_src(vpce_test_mm(), &[("N", 64)]);
        assert_eq!(a.predictions.len(), 3);
        assert!(a.predictions.iter().all(|&(_, c)| c > 0.0));
    }

    #[test]
    fn advice_carries_the_recommended_plan_and_ties_keep_the_first_grain() {
        let analyzed = polaris_fe::compile(vpce_test_mm(), &[("N", 16)]).unwrap();
        for ranks in [1, 4] {
            let base = BackendOptions::new(ranks);
            let a = advise(&analyzed, &base, &CostParams::paper_card());
            let again = compile_backend(&analyzed, &base.clone().granularity(a.recommended));
            assert_eq!(a.compiled.program, again.program, "{ranks} ranks");
            let costs = a.predictions.iter().map(|p| p.1);
            let cheapest = costs.fold(f64::INFINITY, f64::min);
            let first = a.predictions.iter().find(|p| p.1 == cheapest).unwrap().0;
            assert_eq!(a.recommended, first, "{ranks} ranks: {:?}", a.predictions);
        }
        // One rank communicates nothing: a three-way tie at zero.
        let one = advise(&analyzed, &BackendOptions::new(1), &CostParams::paper_card());
        assert!(one.predictions.iter().all(|p| p.1 == 0.0), "{:?}", one.predictions);
        assert_eq!(one.recommended, Granularity::ALL[0]);
    }

    fn vpce_test_mm() -> &'static str {
        "PROGRAM MM\nPARAMETER (N = 64)\nREAL A(N,N), B(N,N), C(N,N)\nINTEGER I, J, K\n\
         DO I = 1, N\nDO J = 1, N\nA(I,J) = 1.0\nB(I,J) = 2.0\nENDDO\nENDDO\n\
         DO I = 1, N\nDO J = 1, N\nC(I,J) = 0.0\nDO K = 1, N\n\
         C(I,J) = C(I,J) + A(I,K) * B(K,J)\nENDDO\nENDDO\nENDDO\nEND\n"
    }
}
