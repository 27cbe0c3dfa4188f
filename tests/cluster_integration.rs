//! Cross-crate cluster behaviour: the compiled programs running over
//! different machine configurations (V-Bus vs Fast Ethernet vs
//! conventional pipelining), hardware broadcast effects, memory
//! accounting, and end-to-end determinism under OS-thread chaos.

use cluster_sim::ClusterConfig;
use vpce::{compile, BackendOptions, ExecMode, Granularity, Universe};
use vpce_machine::MachineSpec;
use vpce_workloads::mm;

/// The built-in machine `name` with four nodes.
fn preset4(name: &str) -> ClusterConfig {
    MachineSpec::builtin(name).unwrap().lower(4).unwrap()
}

fn mm_comm(cluster: &ClusterConfig, n: i64) -> f64 {
    let opts = BackendOptions::new(cluster.num_nodes()).granularity(Granularity::Fine);
    let compiled = compile(mm::SOURCE, &[("N", n)], &opts).unwrap();
    spmd_rt::execute(&compiled.program, cluster, ExecMode::Analytic).comm_time
}

#[test]
fn vbus_beats_fast_ethernet_end_to_end() {
    let vb = mm_comm(&ClusterConfig::paper_n(4), 128);
    let fe = mm_comm(&preset4("fast-ethernet"), 128);
    let ratio = fe / vb;
    assert!(
        ratio > 2.5,
        "the compiled MM should communicate several times faster on the \
         V-Bus card: ratio {ratio}"
    );
}

#[test]
fn skwp_links_beat_conventional_pipelining_end_to_end() {
    let skwp = mm_comm(&ClusterConfig::paper_n(4), 128);
    let conv = mm_comm(&preset4("conventional"), 128);
    assert!(
        conv > 1.5 * skwp,
        "conventional links should slow communication: {skwp} vs {conv}"
    );
}

#[test]
fn prototype_preset_sits_between_nominal_and_ethernet() {
    let nominal = mm_comm(&ClusterConfig::paper_n(4), 128);
    let proto = mm_comm(&preset4("prototype"), 128);
    let fe = mm_comm(&preset4("fast-ethernet"), 128);
    assert!(nominal < proto, "derated bandwidth must cost time");
    assert!(proto > fe * 0.3, "but stay in a plausible range");
}

#[test]
fn broadcast_freezes_inflight_traffic_through_the_mpi_layer() {
    // A long put in flight; a broadcast preempts it; the put's
    // completion (observed at the fence) is pushed back.
    let time_with_bcast = |do_bcast: bool| {
        let uni = Universe::new(ClusterConfig::paper_n(4));
        uni.run(|mpi| {
            let w = mpi.win_create(1 << 17);
            if mpi.rank() == 0 {
                mpi.put_region(&w, 1, 0, 1 << 17).unwrap(); // ~1MB worm
            }
            if do_bcast {
                let data = (mpi.rank() == 2).then(|| vec![0.0; 512]);
                mpi.bcast(2, data);
            }
            mpi.fence_all();
            mpi.now()
        })
        .elapsed()
    };
    let without = time_with_bcast(false);
    let with = time_with_bcast(true);
    assert!(
        with > without,
        "the frozen worm must finish later: {with} vs {without}"
    );
}

/// Bytes one rank holds when every array of `source` is allocated at
/// its declared size (each rank keeps full-size copies).
fn declared_bytes(source: &str, n: i64) -> usize {
    let compiled = compile(source, &[("N", n)], &BackendOptions::new(4)).unwrap();
    compiled.program.arrays.iter().map(|(_, len)| len * 8).sum()
}

#[test]
fn paper_workloads_fit_in_64mb_nodes() {
    let node_mem = ClusterConfig::paper_4node().node.mem_bytes;
    // MM at the paper's largest size: 3 arrays x 8 MB on every rank.
    assert!(declared_bytes(mm::SOURCE, 1024) <= node_mem);
    // SWIM at 512^2: 10 arrays x 2 MB.
    assert!(declared_bytes(vpce_workloads::swim::SOURCE, 512) <= node_mem);
}

#[test]
fn oversized_problem_exceeds_node_memory() {
    // 3 x 32 MB does not fit in 64 MB: the figure a typed refusal
    // would be computed from (ROADMAP memory item (d)).
    let node_mem = ClusterConfig::paper_4node().node.mem_bytes;
    assert!(declared_bytes(mm::SOURCE, 2048) > node_mem);
}

#[test]
fn many_runs_same_virtual_times() {
    // Thread scheduling chaos across 8 repetitions must not leak into
    // virtual time (the determinism contract of the whole stack).
    let run = || {
        let opts = BackendOptions::new(4).granularity(Granularity::Middle);
        let compiled = compile(mm::SOURCE, &[("N", 32)], &opts).unwrap();
        let rep = spmd_rt::execute(
            &compiled.program,
            &ClusterConfig::paper_4node(),
            ExecMode::Full,
        );
        (rep.elapsed, rep.comm_time, rep.net.p2p_messages)
    };
    let first = run();
    for _ in 0..7 {
        assert_eq!(run(), first);
    }
}

#[test]
fn cluster_sizes_beyond_the_paper_scale() {
    // The mesh generalises: 9 and 16 nodes still compute correctly
    // and speed up over 4.
    let elapsed = |p: usize| {
        let opts = BackendOptions::new(p).granularity(Granularity::Coarse);
        let compiled = compile(mm::SOURCE, &[("N", 256)], &opts).unwrap();
        spmd_rt::execute(&compiled.program, &ClusterConfig::paper_n(p), ExecMode::Analytic)
            .elapsed
    };
    let t4 = elapsed(4);
    let t9 = elapsed(9);
    let t16 = elapsed(16);
    assert!(t9 < t4, "9 nodes beat 4: {t9} vs {t4}");
    assert!(t16 < t9, "16 nodes beat 9: {t16} vs {t9}");
}

#[test]
fn rank_count_is_not_a_thread_count() {
    // 16 384 ranks were 16 384 OS threads, and the process died in
    // `std` setting up the stack guard page of one of them (exit 134).
    // Ranks are tasks on as many workers as the host has cores now, and
    // an eager slot is registered when it is first staged into: the run
    // is a fraction of a second and tens of megabytes. It may end in a
    // typed refusal some day; it may never abort.
    let mm_f = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fortran/mm.f");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vpcec"))
        .args([mm_f, "--nodes", "16384", "--param", "N=64", "--analytic", "--grain", "coarse"])
        .output()
        .expect("spawn vpcec");
    let (text, err) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(0), "{text}{err}");
    assert!(text.contains("16384 ranks") && text.contains("speedup"), "{text}");
    assert!(!err.contains("panicked"), "{err}");
}
