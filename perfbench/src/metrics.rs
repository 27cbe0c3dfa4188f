//! The metric names this benchmark defines. `BENCHMARK.json` carries
//! the same lists for the acceptance driver (a self-test keeps the two
//! in step); later issues refer to these names.

/// How a per-layer value behaves across runs of one commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A deterministic count (or a virtual time): must repeat bit for
    /// bit, and `compare` holds two result files to equality.
    Exact,
    /// Host time or an OS statistic: reported as a median, compared by
    /// ratio only.
    Measured,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
    }
}

/// What a user of `vpcec` sees. `fail_share` (failed ÷ attempted
/// operations) is the fourth end-to-end number; the acceptance
/// contract carries it as the `attempted`/`failed` keys of the result
/// line instead of a bounded metric, because a metric there may never
/// read 0 and `fail_share` must.
pub const END_TO_END: [Metric; 3] = [
    m("wall_s", "s", "lower", Kind::Measured),
    m("peak_rss_mb", "MB", "lower", Kind::Measured),
    m("setup_s", "s", "lower", Kind::Measured),
];

use Kind::{Exact as E, Measured as T};

/// One row per number the traced run reports; the prefix is the crate
/// directory the number belongs to.
pub const PER_LAYER: [Metric; 62] = [
    m("core.cpu_s", "s", "lower", T),
    m("core.ctx_switches", "count", "lower", T),
    m("core.advisor_s", "s", "lower", T),
    m("core.trace_overhead_ratio", "ratio", "lower", T),
    m("polaris-fe.compile_s", "s", "lower", T),
    m("polaris-fe.regions", "count", "lower", E),
    m("polaris-be.plan_s", "s", "lower", T),
    m("polaris-be.plan_fine_s", "s", "lower", T),
    m("polaris-be.plan_middle_s", "s", "lower", T),
    m("polaris-be.plan_coarse_s", "s", "lower", T),
    m("polaris-be.transfers", "count", "lower", E),
    m("polaris-be.us_per_transfer", "us", "lower", T),
    m("polaris-be.strided_msgs", "count", "lower", E),
    m("polaris-be.fallback_fine", "count", "lower", E),
    m("polaris-be.elided_elems", "count", "higher", E),
    m("lmad.overlap_ns", "ns", "lower", T),
    m("lmad.pair_tests", "count", "lower", E),
    m("lmad.any_overlap_s", "s", "lower", T),
    m("lmad.lower_s", "s", "lower", T),
    m("lmad.lower_transfers", "count", "lower", E),
    m("rmacheck.lower_s", "s", "lower", T),
    m("rmacheck.lint_s", "s", "lower", T),
    m("rmacheck.events", "count", "lower", E),
    m("rmacheck.us_per_event", "us", "lower", T),
    m("rmacheck.diagnostics", "count", "lower", E),
    m("commcheck.verify_s", "s", "lower", T),
    m("commcheck.states", "count", "lower", E),
    m("spmd-rt.exec_s", "s", "lower", T),
    m("spmd-rt.seq_s", "s", "lower", T),
    m("spmd-rt.inner_iters", "count", "higher", E),
    m("spmd-rt.seq_ns_per_iter", "ns", "lower", T),
    m("spmd-rt.par_ns_per_iter", "ns", "lower", T),
    m("spmd-rt.virt_elapsed_s", "s", "lower", E),
    m("spmd-rt.virt_comm_s", "s", "lower", E),
    m("mpi2.rma_ops", "count", "lower", E),
    m("mpi2.fences", "count", "lower", E),
    m("mpi2.barriers", "count", "lower", E),
    m("mpi2.eager_ops", "count", "higher", E),
    m("mpi2.rdvz_ops", "count", "lower", E),
    m("mpi2.bytes_put", "B", "lower", E),
    m("mpi2.put_fence_us", "us", "lower", T),
    m("mpi2.barrier_us", "us", "lower", T),
    m("mpi2.spawn_us", "us", "lower", T),
    m("mpi2.exec_us_per_msg", "us", "lower", T),
    m("vbus-sim.p2p_ns", "ns", "lower", T),
    m("vbus-sim.bcast_ns", "ns", "lower", T),
    m("vbus-sim.p2p_messages", "count", "lower", E),
    m("vbus-sim.p2p_bytes", "B", "lower", E),
    m("vbus-sim.broadcasts", "count", "lower", E),
    m("sched.parse_s", "s", "lower", T),
    m("sched.batch_s", "s", "lower", T),
    m("sched.jobs", "count", "higher", E),
    m("sched.us_per_job", "us", "lower", T),
    m("serve.ingest_s", "s", "lower", T),
    m("serve.submits_per_s", "1/s", "higher", T),
    m("serve.drain_s", "s", "lower", T),
    m("serve.recover_s", "s", "lower", T),
    m("serve.journal_bytes", "B", "lower", E),
    m("trace.exec_ratio", "ratio", "lower", T),
    m("trace.events", "count", "lower", E),
    m("trace.json_bytes", "B", "lower", E),
    m("machine.load_us", "us", "lower", T),
];

/// The crate directories the per-layer metrics are attributed to.
#[cfg(test)]
pub const LAYERS: [&str; 13] = [
    "core",
    "polaris-fe",
    "polaris-be",
    "lmad",
    "rmacheck",
    "commcheck",
    "spmd-rt",
    "mpi2",
    "vbus-sim",
    "sched",
    "serve",
    "trace",
    "machine",
];

/// Names the acceptance contract accepts: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_unique_and_belong_to_a_layer() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_valid_name(metric.name), "{}", metric.name);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(
                matches!(metric.better, "lower" | "higher"),
                "{}",
                metric.name
            );
        }
        for metric in &PER_LAYER {
            let layer = metric.name.split_once('.').expect("layer prefix").0;
            assert!(LAYERS.contains(&layer), "{} names no layer", metric.name);
        }
        for layer in LAYERS {
            assert!(
                PER_LAYER
                    .iter()
                    .any(|m| m.name.starts_with(&format!("{layer}."))),
                "layer {layer} has no metric"
            );
        }
        assert!(!is_valid_name("") && !is_valid_name(".x") && !is_valid_name("a b"));
    }
}
