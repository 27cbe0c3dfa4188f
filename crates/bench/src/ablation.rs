//! Ablations A1–A5 of `DESIGN.md`: each design choice the paper calls
//! out, measured with the mechanism switched on and off.

use crate::fmt_secs;
use cluster_sim::{ClusterConfig, NicModel};
use lmad::Granularity;
use polaris_be::BackendOptions;
use spmd_rt::{ExecMode, Schedule};
use vpce_diag::json::{self, Layout};
use vpce_workloads::{mm, swim};

/// A1 — AVPG redundant-communication elimination on the SWIM loop
/// chain: comm time and traffic with and without the graph.
#[derive(Debug, Clone)]
pub(crate) struct A1Result {
    pub with_avpg_comm: f64,
    pub without_avpg_comm: f64,
    pub with_msgs: usize,
    pub without_msgs: usize,
    pub with_bytes: u64,
    pub without_bytes: u64,
    pub scatters_elided: usize,
    pub collects_elided: usize,
}

pub(crate) fn a1_avpg(n: i64, cluster: &ClusterConfig) -> A1Result {
    let p = cluster.num_nodes();
    let run = |avpg: bool| {
        let opts = BackendOptions::new(p)
            .granularity(Granularity::Coarse)
            .avpg(avpg);
        let compiled = vpce::compile(swim::SOURCE, &[("N", n)], &opts).unwrap();
        let rep = spmd_rt::execute(&compiled.program, cluster, ExecMode::Analytic);
        let (msgs, elems) = compiled.program.comm_summary();
        (rep.comm_time, msgs, elems * 8, compiled.report.elisions)
    };
    let (with_comm, with_msgs, with_bytes, elisions) = run(true);
    let (wo_comm, wo_msgs, wo_bytes, _) = run(false);
    A1Result {
        with_avpg_comm: with_comm,
        without_avpg_comm: wo_comm,
        with_msgs,
        without_msgs: wo_msgs,
        with_bytes,
        without_bytes: wo_bytes,
        scatters_elided: elisions.scatters_elided,
        collects_elided: elisions.collects_elided,
    }
}

/// A2 — the §2.2 software-stack optimization: the shared
/// driver/daemon message queue and direct user→driver copies, versus
/// a conventional kernel stack on identical silicon.
#[derive(Debug, Clone)]
pub(crate) struct A2Result {
    pub user_level_comm: f64,
    pub kernel_level_comm: f64,
}

pub(crate) fn a2_stack(n: i64) -> A2Result {
    let opts = BackendOptions::new(4).granularity(Granularity::Fine);
    let compiled = vpce::compile(mm::SOURCE, &[("N", n)], &opts).unwrap();
    let user = ClusterConfig::paper_n(4);
    let mut kernel = ClusterConfig::paper_n(4);
    kernel.node.nic = NicModel::vbus_card_kernel_stack();
    A2Result {
        user_level_comm: spmd_rt::execute(&compiled.program, &user, ExecMode::Analytic).comm_time,
        kernel_level_comm: spmd_rt::execute(&compiled.program, &kernel, ExecMode::Analytic)
            .comm_time,
    }
}

/// A3 — block vs cyclic partitioning on a triangular loop: total
/// execution time (load balance) under each schedule.
#[derive(Debug, Clone)]
pub(crate) struct A3Result {
    pub block_elapsed: f64,
    pub cyclic_elapsed: f64,
    /// What the §5.3 heuristic picked on its own.
    pub heuristic_is_cyclic: bool,
}

/// A triangular matrix product (`C = A·B` on the lower triangle):
/// iteration `I` costs ~`I·N` flops, so block scheduling leaves the
/// high-index ranks with most of the work while cyclic interleaves it.
pub(crate) const TRIANGULAR_SOURCE: &str = r"
      PROGRAM TRI
      PARAMETER (N = 256)
      REAL A(N,N), B(N,N), C(N,N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          A(I,J) = REAL(I+J) / REAL(N)
          B(I,J) = REAL(I-J) / REAL(N)
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = 1, I
          C(I,J) = 0.0
          DO K = 1, N
            C(I,J) = C(I,J) + A(I,K) * B(K,J)
          ENDDO
        ENDDO
      ENDDO
      END
";

pub(crate) fn a3_partitioning(n: i64, cluster: &ClusterConfig) -> A3Result {
    let p = cluster.num_nodes();
    let run = |sched: Option<Schedule>| {
        let mut opts = BackendOptions::new(p).granularity(Granularity::Coarse);
        if let Some(s) = sched {
            opts = opts.schedule(s);
        }
        let compiled = vpce::compile(TRIANGULAR_SOURCE, &[("N", n)], &opts).unwrap();
        let heuristic_cyclic = compiled
            .report
            .regions
            .iter()
            .any(|r| r.sched_cyclic);
        (
            spmd_rt::execute(&compiled.program, cluster, ExecMode::Analytic).elapsed,
            heuristic_cyclic,
        )
    };
    let (block_elapsed, _) = run(Some(Schedule::Block));
    let (cyclic_elapsed, _) = run(Some(Schedule::Cyclic));
    let (_, heuristic_is_cyclic) = run(None);
    A3Result {
        block_elapsed,
        cyclic_elapsed,
        heuristic_is_cyclic,
    }
}

/// A4 — the §5.6 overlap safety check. MM partitions *rows* of
/// column-major arrays, so the slaves' bounding collect regions
/// interleave and coarse collection must fall back to fine; SWIM
/// partitions *columns*, whose bounding regions are disjoint, so
/// coarse collection stays legal. Returns (MM fallbacks, SWIM
/// fallbacks). Correctness under both outcomes is covered by the
/// integration tests.
pub(crate) fn a4_overlap_check(n: i64) -> (usize, usize) {
    let fallbacks = |src: &str, params: (&str, i64)| -> usize {
        let opts = BackendOptions::new(4).granularity(Granularity::Coarse);
        let compiled = vpce::compile(src, &[params], &opts).unwrap();
        compiled
            .report
            .regions
            .iter()
            .map(|r| r.collect_fallback_fine.len())
            .sum()
    };
    (
        fallbacks(mm::SOURCE, ("N", n)),
        fallbacks(swim::SOURCE, ("N", n)),
    )
}

/// A5 — push (master `MPI_PUT`) vs pull (slave `MPI_GET`) data
/// scattering. One-sided communication makes the initiator a free
/// choice; pulling parallelises the per-message host setup across the
/// slaves, which matters exactly when Table 2's fine grain floods the
/// master with setups.
#[derive(Debug, Clone)]
pub(crate) struct A5Result {
    pub push_comm: f64,
    pub pull_comm: f64,
    pub push_master_host: f64,
    pub pull_master_host: f64,
}

pub(crate) fn a5_push_vs_pull(n: i64, cluster: &ClusterConfig) -> A5Result {
    let p = cluster.num_nodes();
    let run = |pull: bool| {
        let opts = BackendOptions::new(p)
            .granularity(Granularity::Fine)
            .pull(pull);
        let compiled = vpce::compile(swim::SOURCE, &[("N", n)], &opts).unwrap();
        let rep = spmd_rt::execute(&compiled.program, cluster, ExecMode::Analytic);
        (rep.comm_time, rep.rank_stats[0].comm_host)
    };
    let (push_comm, push_master_host) = run(false);
    let (pull_comm, pull_master_host) = run(true);
    A5Result {
        push_comm,
        pull_comm,
        push_master_host,
        pull_master_host,
    }
}

/// Run A1–A5 at size 256 on the paper's 4-node machine, print each
/// result, and return the committed `BENCH_ablation.json`.
pub(crate) fn table() -> String {
    const N: i64 = 256;
    let cluster = ClusterConfig::paper_4node();
    json::document(Layout::Block(2), |o| {
        o.int("n", N);
        let a1 = a1_avpg(N, &cluster);
        println!("== A1: AVPG redundant-communication elimination (SWIM {N}) ==");
        println!(
            "  with AVPG:    comm {} / {} msgs / {} B",
            fmt_secs(a1.with_avpg_comm),
            a1.with_msgs,
            a1.with_bytes
        );
        println!(
            "  without AVPG: comm {} / {} msgs / {} B",
            fmt_secs(a1.without_avpg_comm),
            a1.without_msgs,
            a1.without_bytes
        );
        println!(
            "  elided: {} scatters, {} collects ({:.1}% comm-time saved)",
            a1.scatters_elided,
            a1.collects_elided,
            100.0 * (1.0 - a1.with_avpg_comm / a1.without_avpg_comm)
        );
        o.object("a1_avpg", Layout::Inline)
            .num("with_avpg_comm_s", a1.with_avpg_comm)
            .num("without_avpg_comm_s", a1.without_avpg_comm)
            .int("with_msgs", a1.with_msgs)
            .int("without_msgs", a1.without_msgs)
            .int("with_bytes", a1.with_bytes)
            .int("without_bytes", a1.without_bytes)
            .int("scatters_elided", a1.scatters_elided)
            .int("collects_elided", a1.collects_elided);

        let a2 = a2_stack(N);
        println!("\n== A2: shared driver/daemon queue vs kernel stack (MM {N}, fine) ==");
        println!(
            "  user-level {} vs kernel-level {} ({:.2}x)",
            fmt_secs(a2.user_level_comm),
            fmt_secs(a2.kernel_level_comm),
            a2.kernel_level_comm / a2.user_level_comm
        );
        o.object("a2_stack", Layout::Inline)
            .num("user_level_comm_s", a2.user_level_comm)
            .num("kernel_level_comm_s", a2.kernel_level_comm);

        let a3 = a3_partitioning(N, &cluster);
        println!("\n== A3: block vs cyclic partitioning (triangular matmul {N}) ==");
        println!(
            "  block {} vs cyclic {} ({:.2}x); heuristic picked cyclic: {}",
            fmt_secs(a3.block_elapsed),
            fmt_secs(a3.cyclic_elapsed),
            a3.block_elapsed / a3.cyclic_elapsed,
            a3.heuristic_is_cyclic
        );
        o.object("a3_partitioning", Layout::Inline)
            .num("block_elapsed_s", a3.block_elapsed)
            .num("cyclic_elapsed_s", a3.cyclic_elapsed)
            .bool("heuristic_is_cyclic", a3.heuristic_is_cyclic);

        let a5 = a5_push_vs_pull(N, &cluster);
        println!("\n== A5: push (master PUT) vs pull (slave GET) scattering (SWIM {N}, fine) ==");
        println!(
            "  push comm {} (master host {}) vs pull comm {} (master host {})",
            fmt_secs(a5.push_comm),
            fmt_secs(a5.push_master_host),
            fmt_secs(a5.pull_comm),
            fmt_secs(a5.pull_master_host)
        );

        let (mm_fb, swim_fb) = a4_overlap_check(N);
        println!("\n== A4: section 5.6 overlap safety check (coarse collection) ==");
        println!("  MM (interleaved row bands): {mm_fb} arrays forced to fine collection");
        println!("  SWIM (disjoint column bands): {swim_fb} arrays forced to fine collection");
        o.object("a4_overlap_check", Layout::Inline)
            .int("mm_fine_fallbacks", mm_fb)
            .int("swim_fine_fallbacks", swim_fb);
        o.object("a5_push_vs_pull", Layout::Inline)
            .num("push_comm_s", a5.push_comm)
            .num("pull_comm_s", a5.pull_comm)
            .num("push_master_host_s", a5.push_master_host)
            .num("pull_master_host_s", a5.pull_master_host);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_avpg_reduces_communication() {
        let r = a1_avpg(64, &ClusterConfig::paper_4node());
        assert!(r.scatters_elided > 0);
        assert!(r.with_msgs < r.without_msgs);
        assert!(r.with_bytes < r.without_bytes);
        assert!(r.with_avpg_comm < r.without_avpg_comm);
    }

    #[test]
    fn a2_user_level_stack_is_faster() {
        let r = a2_stack(64);
        assert!(
            r.kernel_level_comm > 1.2 * r.user_level_comm,
            "kernel {} vs user {}",
            r.kernel_level_comm,
            r.user_level_comm
        );
    }

    #[test]
    fn a3_cyclic_balances_the_triangle() {
        let r = a3_partitioning(256, &ClusterConfig::paper_4node());
        assert!(
            r.cyclic_elapsed < r.block_elapsed,
            "cyclic {} vs block {}",
            r.cyclic_elapsed,
            r.block_elapsed
        );
        assert!(r.heuristic_is_cyclic, "§5.3 heuristic must pick cyclic");
    }

    #[test]
    fn a5_pull_unloads_the_master() {
        let r = a5_push_vs_pull(128, &ClusterConfig::paper_4node());
        assert!(r.pull_master_host < r.push_master_host / 2.0);
        assert!(r.pull_comm < r.push_comm);
    }

    #[test]
    fn a4_overlap_check_fires_only_when_regions_interleave() {
        let (mm_fb, swim_fb) = a4_overlap_check(64);
        assert!(mm_fb > 0, "interleaved row bands must trigger the fallback");
        assert_eq!(swim_fb, 0, "column bands are disjoint");
    }
}
