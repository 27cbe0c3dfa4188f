//! The paper's experimental claims as executable assertions, at sizes
//! small enough for `cargo test` (the full-size rows come from the
//! `table1`/`table2`/`hwclaims`/`ablation` binaries and are recorded
//! in EXPERIMENTS.md).

use std::borrow::Cow;

use cluster_sim::ClusterConfig;
use vpce::{compile, BackendOptions, ExecMode, Granularity, Schedule};
use vpce_machine::MachineSpec;
use vpce_sched::{run, JobSource, JobSpec};
use vpce_workloads::{cfft, mm, swim};

fn comm_time(
    src: &str,
    params: (&str, i64),
    g: Granularity,
    sched: Option<Schedule>,
    cluster: &ClusterConfig,
) -> f64 {
    let mut opts = BackendOptions::new(cluster.num_nodes()).granularity(g);
    if let Some(s) = sched {
        opts = opts.schedule(s);
    }
    let compiled = compile(src, &[params], &opts).unwrap();
    spmd_rt::execute(&compiled.program, cluster, ExecMode::Analytic).comm_time
}

fn speedup(src: &str, params: (&str, i64), nodes: usize) -> f64 {
    let opts = BackendOptions::new(nodes).granularity(Granularity::Coarse);
    let compiled = compile(src, &[params], &opts).unwrap();
    let cluster = ClusterConfig::paper_n(nodes);
    let par = spmd_rt::execute(&compiled.program, &cluster, ExecMode::Analytic).elapsed;
    let seq =
        spmd_rt::execute_sequential(&compiled.program, &cluster.node.cpu, ExecMode::Analytic)
            .elapsed;
    seq / par
}

// ------------------------------------------------------------ Table 1

#[test]
fn table1_one_node_speedup_is_0_96() {
    let s = speedup(mm::SOURCE, ("N", 128), 1);
    assert!((s - 0.96).abs() < 0.005, "got {s}");
}

#[test]
fn table1_speedup_grows_with_nodes_and_size() {
    let s2 = speedup(mm::SOURCE, ("N", 128), 2);
    let s4 = speedup(mm::SOURCE, ("N", 128), 4);
    assert!(s2 > 1.2 && s4 > s2, "s2={s2} s4={s4}");
    // Bigger matrices amortise communication better.
    let s4_big = speedup(mm::SOURCE, ("N", 256), 4);
    assert!(s4_big > s4, "{s4_big} vs {s4}");
}

#[test]
fn table1_speedups_bounded_by_node_count() {
    for nodes in [2usize, 4] {
        let s = speedup(mm::SOURCE, ("N", 128), nodes);
        assert!(s < nodes as f64, "superlinear speedup is a bug: {s}");
    }
}

// ------------------------------------------------------------ Table 2

#[test]
fn table2_cfft_ordering_coarse_middle_fine() {
    let cl = ClusterConfig::paper_4node();
    let fine = comm_time(cfft::SOURCE, ("M", 11), Granularity::Fine, None, &cl);
    let middle = comm_time(cfft::SOURCE, ("M", 11), Granularity::Middle, None, &cl);
    let coarse = comm_time(cfft::SOURCE, ("M", 11), Granularity::Coarse, None, &cl);
    assert!(middle < fine, "paper: middle beats fine ({middle} vs {fine})");
    assert!(coarse < middle, "paper: coarse beats middle ({coarse} vs {middle})");
}

#[test]
fn table2_mm_cyclic_middle_worse_than_fine() {
    let cl = ClusterConfig::paper_4node();
    let s = Some(Schedule::Cyclic);
    let fine = comm_time(mm::SOURCE, ("N", 256), Granularity::Fine, s, &cl);
    let middle = comm_time(mm::SOURCE, ("N", 256), Granularity::Middle, s, &cl);
    let ratio = middle / fine;
    assert!(
        (1.02..1.6).contains(&ratio),
        "paper reports middle ~17-24% worse for MM; got {ratio}"
    );
}

#[test]
fn table2_swim_coarse_beats_fine_in_setup_dominated_regime() {
    let cl = ClusterConfig::paper_4node();
    let fine = comm_time(swim::SOURCE, ("N", 64), Granularity::Fine, None, &cl);
    let coarse = comm_time(swim::SOURCE, ("N", 64), Granularity::Coarse, None, &cl);
    assert!(
        coarse < 0.8 * fine,
        "paper: coarse wins clearly ({coarse} vs {fine})"
    );
}

#[test]
fn table2_no_single_granularity_wins_everywhere() {
    // The paper's actual conclusion: "any single technique does not
    // work for all types of communication patterns".
    let cl = ClusterConfig::paper_4node();
    // CFFT: middle < fine …
    let cf_fine = comm_time(cfft::SOURCE, ("M", 11), Granularity::Fine, None, &cl);
    let cf_middle = comm_time(cfft::SOURCE, ("M", 11), Granularity::Middle, None, &cl);
    assert!(cf_middle < cf_fine);
    // …but MM (cyclic): middle > fine.
    let s = Some(Schedule::Cyclic);
    let mm_fine = comm_time(mm::SOURCE, ("N", 256), Granularity::Fine, s, &cl);
    let mm_middle = comm_time(mm::SOURCE, ("N", 256), Granularity::Middle, s, &cl);
    assert!(mm_middle > mm_fine);
}

// --------------------------------------------------------- §6 lessons

#[test]
fn granularity_choice_preserves_results_not_just_time() {
    // Whatever granularity the user picks (§5.6: "it is up to the
    // user"), answers are identical — only time changes.
    let cl = ClusterConfig::paper_4node();
    let mut reference: Option<Vec<Vec<f64>>> = None;
    for g in Granularity::ALL {
        let opts = BackendOptions::new(4).granularity(g);
        let compiled = compile(swim::SOURCE, &[("N", 24)], &opts).unwrap();
        let rep = spmd_rt::execute(&compiled.program, &cl, ExecMode::Full);
        match &reference {
            None => reference = Some(rep.arrays),
            Some(r) => assert_eq!(r, &rep.arrays, "{g:?} changed results"),
        }
    }
}

#[test]
fn avpg_elision_changes_traffic_not_results() {
    let cl = ClusterConfig::paper_4node();
    let mut outs = Vec::new();
    for avpg in [true, false] {
        let opts = BackendOptions::new(4).avpg(avpg);
        let compiled = compile(swim::SOURCE, &[("N", 24)], &opts).unwrap();
        outs.push(spmd_rt::execute(&compiled.program, &cl, ExecMode::Full).arrays);
    }
    assert_eq!(outs[0], outs[1]);
}

// ------------------------------------------------- granularity advice

#[test]
fn the_batch_door_grain_is_the_advisors_on_every_builtin_machine() {
    // The §5.6 "profiling tools to guide the user": admission
    // (`sched::run::compile`) of a job without `grain=` must pick the
    // grain `vpce::advise` picks on the private partition `--batch`
    // gives a job of that width. The cells: the paper-size CFFT2INIT
    // and SWIM on 4 ranks of the paper machine; MM N=96 on 2 ranks;
    // every cell of perfbench's `job_storm` grid; and SWIM N=32 and
    // CFFT2INIT M=8 on every built-in machine × ranks. A static
    // plan-cost estimate once picked coarse where simulation found fine
    // cheaper on MM N=96 and CFFT2INIT M=8 at 2 ranks, and on SWIM N=32
    // at 8 and 16 ranks of the `prototype` and `conventional` machines.
    let paper = MachineSpec::default();
    let mut cells = vec![
        (cfft::SOURCE, ("M", 11i64), 4usize, paper.clone()),
        (swim::SOURCE, ("N", 64), 4, paper.clone()),
        (mm::SOURCE, ("N", 96), 2, paper.clone()),
        (cfft::SOURCE, ("M", 8), 2, paper.clone()),
    ];
    for ranks in [1, 2, 4] {
        for n in [8, 16, 32] {
            cells.push((mm::SOURCE, ("N", n), ranks, paper.clone()));
            cells.push((swim::SOURCE, ("N", n), ranks, paper.clone()));
        }
        for m in [3, 4, 5] {
            cells.push((cfft::SOURCE, ("M", m), ranks, paper.clone()));
        }
    }
    for name in MachineSpec::BUILTINS {
        let machine = MachineSpec::builtin(name).unwrap();
        for ranks in [2, 4, 8, 16] {
            cells.push((swim::SOURCE, ("N", 32), ranks, machine.clone()));
            cells.push((cfft::SOURCE, ("M", 8), ranks, machine.clone()));
        }
    }
    assert_eq!(cells.len(), 4 + 27 + 2 * 4 * MachineSpec::BUILTINS.len());
    let mut winners = Vec::new();
    for (src, params, ranks, machine) in cells {
        let case = format!("{params:?} on {ranks} ranks of `{}`", machine.name);
        let analyzed = polaris_fe::compile(src, &[params]).unwrap();
        let shape = run::job_footprint(&machine, ranks);
        let cluster = machine.lower_partition(shape, ranks).unwrap();
        let shared = vpce::Translated::new(Cow::Borrowed(&analyzed));
        let advice = vpce::advise(&shared, &cluster, &BackendOptions::new(ranks)).unwrap();
        let mut job = JobSpec::new("j", JobSource::Inline(src.into()), ranks);
        job.params.push((params.0.into(), params.1));
        let plan = run::compile(&job, &shared, &machine).unwrap();
        assert_eq!(plan.granularity, advice.winner, "{case}: {:?}", advice.measured);
        assert_eq!(plan.program, advice.compiled.program, "{case}");
        winners.push(advice.winner);
    }
    for g in [Granularity::Fine, Granularity::Coarse] {
        assert!(winners.contains(&g), "{g:?} wins somewhere");
    }
}

#[test]
fn simulated_advisor_picks_coarse_for_cfft() {
    let cluster = ClusterConfig::paper_4node();
    let (winner, _) =
        vpce::advise_granularity(cfft::SOURCE, &[("M", 11)], &cluster, &BackendOptions::new(4))
            .unwrap();
    assert_eq!(winner, Granularity::Coarse);
}
