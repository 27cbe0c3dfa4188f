//! The six workloads: what each one runs, why it was chosen, and the
//! inputs it generates from the seed. `vpcec` receives only the files
//! and argv built here.

use std::fmt::Write as _;

use crate::layers;
use crate::rng::Rng;

/// A check on a finished invocation's stdout that does not come from
/// the code under test: the expectation is written down here by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Nothing beyond the exit code and the pinned digest.
    Nothing,
    /// A full-numeric run must say the parallel result equals the
    /// sequential one.
    IdenticalToSequential,
    /// `--lint` must end with exactly this many errors and warnings.
    Lint { errors: usize, warnings: usize },
    /// A batch or serve report must account for all `jobs` as done.
    AllJobsDone { jobs: usize },
}

/// One `vpcec` invocation of a workload's command sequence.
#[derive(Debug, Clone)]
pub struct Invocation {
    pub argv: Vec<String>,
    pub exit: i32,
    pub expect: Expect,
}

/// Everything one sample needs: the files to write into its fresh
/// directory and the invocations to run there, in order.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub files: Vec<(&'static str, String)>,
    pub invocations: Vec<Invocation>,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `vpcec <file> <args…>` on one F77-mini program.
    Program {
        file: &'static str,
        source: &'static str,
        args: &'static str,
        exit: i32,
        expect: Expect,
        /// Order of MM when the run is full-numeric: its triple loop
        /// executes N³ inner iterations, and `C` has a native reference.
        mm_order: Option<usize>,
    },
    /// The seeded two-tenant jobfile through `--batch`, then a fresh
    /// and a recovering `--serve` incarnation on one journal.
    Storm,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README says more.
    pub why: &'static str,
    shape: Shape,
}

/// Sizes are pinned so one sample takes 1.0–1.8 s on the 2-core box
/// (see the README for why they are below the issue's 3–5 s sizing).
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "mm_full",
        why: "paper's 4-node machine, full numeric MM: the spmd-rt interpreter and rank threads are >=95% of the run",
        shape: Shape::Program {
            file: "mm.f",
            source: layers::MM_SOURCE,
            args: "--nodes 4 --param N=144 --grain coarse",
            exit: 0,
            expect: Expect::IdenticalToSequential,
            mm_order: Some(144),
        },
    },
    Workload {
        name: "mm_wire",
        why: "16 ranks, analytic, fine grain: ~100k wire messages and no numeric work, so mpi2 + vbus-sim dominate and RSS is large",
        shape: Shape::Program {
            file: "mm.f",
            source: layers::MM_SOURCE,
            args: "--nodes 16 --param N=640 --analytic --grain fine",
            exit: 0,
            expect: Expect::Nothing,
            mm_order: None,
        },
    },
    Workload {
        name: "mm_advise",
        why: "the default path (no --grain): the advisor plans and simulates all three grains; polaris-be middle-grain planning dominates",
        shape: Shape::Program {
            file: "mm.f",
            source: layers::MM_SOURCE,
            args: "--nodes 16 --param N=160 --analytic --advise",
            exit: 0,
            expect: Expect::Nothing,
            mm_order: None,
        },
    },
    Workload {
        name: "mm_lint",
        why: "--lint on MM's contiguous row bands: rmacheck is >=90% of a run whose plan executes 10x faster than it checks",
        shape: Shape::Program {
            file: "mm.f",
            source: layers::MM_SOURCE,
            args: "--nodes 16 --param N=160 --grain fine --lint",
            exit: 0,
            expect: Expect::Lint { errors: 0, warnings: 0 },
            mm_order: None,
        },
    },
    Workload {
        name: "swim_lint",
        why: "--lint on SWIM's 10-array stencil chain: halo overlaps, AVPG elisions and 73 real VPCE101 warnings (exit 1)",
        shape: Shape::Program {
            file: "swim.f",
            source: layers::SWIM_SOURCE,
            args: "--nodes 16 --param N=400 --grain fine --lint",
            exit: 1,
            expect: Expect::Lint { errors: 0, warnings: 73 },
            mm_order: None,
        },
    },
    Workload {
        name: "job_storm",
        why: "81 tiny two-tenant jobs through --batch, --serve and journal recovery: fixed per-run and per-job costs dominate",
        shape: Shape::Storm,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The sample inputs for `seed`. Only `job_storm` depends on it.
    pub fn inputs(&self, seed: u64) -> Inputs {
        match self.shape {
            Shape::Program {
                file,
                source,
                args,
                exit,
                expect,
                ..
            } => Inputs {
                files: vec![(file, source.to_string())],
                invocations: vec![Invocation {
                    argv: std::iter::once(file)
                        .chain(args.split(' '))
                        .map(String::from)
                        .collect(),
                    exit,
                    expect,
                }],
            },
            Shape::Storm => {
                let invoke = |args: &str| Invocation {
                    argv: args.split(' ').map(String::from).collect(),
                    exit: 0,
                    expect: Expect::AllJobsDone { jobs: STORM_JOBS },
                };
                Inputs {
                    files: vec![("storm.jobs", storm_jobfile(seed))],
                    invocations: vec![
                        invoke("--batch storm.jobs"),
                        invoke("--serve storm.jobs --journal vpced.journal"),
                        invoke("--serve storm.jobs --journal vpced.journal"),
                    ],
                }
            }
        }
    }

    /// Whether the inputs (and so the pinned report digests) are the
    /// same for every seed.
    pub fn seed_independent(&self) -> bool {
        matches!(self.shape, Shape::Program { .. })
    }

    /// Order of the full-numeric MM this workload runs, if it is one.
    pub fn mm_order(&self) -> Option<usize> {
        match self.shape {
            Shape::Program { mm_order, .. } => mm_order,
            Shape::Storm => None,
        }
    }
}

/// Copies of each (program, ranks, size) combination in the storm.
const STORM_COPIES: usize = 3;
/// Jobs in the storm: 3 programs × 3 rank counts × 3 sizes × copies.
pub const STORM_JOBS: usize = 27 * STORM_COPIES;
/// Mean of the exponential inter-arrival gap, virtual seconds: about
/// ten jobs are resident at once on the 16-node mesh.
const STORM_MEAN_GAP_S: f64 = 2e-5;

/// The `job_storm` jobfile. Every seed submits the same multiset of
/// jobs — each program at each rank count and size, `STORM_COPIES`
/// times — so the work is comparable across seeds; the seed decides
/// the submission order, the exponential arrival times and which
/// tenant owns each job.
pub fn storm_jobfile(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let mut jobs = Vec::with_capacity(STORM_JOBS);
    for _ in 0..STORM_COPIES {
        for program in ["mm", "swim", "cfft"] {
            for ranks in [1, 2, 4] {
                for size in 0..3 {
                    // N = 8, 16, 32 points; CFFT2INIT takes it as 2^M.
                    let param = match program {
                        "cfft" => format!("param:M={}", 3 + size),
                        _ => format!("param:N={}", 8 << size),
                    };
                    jobs.push((program, ranks, param));
                }
            }
        }
    }
    rng.shuffle(&mut jobs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# perfbench job_storm, seed {seed}: {STORM_JOBS} fault-free jobs, two tenants"
    );
    let _ = writeln!(out, "nodes=16\npolicy=backfill\nseed={seed}");
    let _ = writeln!(
        out,
        "tenant name=acme share=2 quota=8\ntenant name=beta share=1"
    );
    let mut arrive = 0.0f64;
    for (i, (program, ranks, param)) in jobs.iter().enumerate() {
        arrive += -rng.unit().ln() * STORM_MEAN_GAP_S;
        let tenant = if rng.below(2) == 0 { "acme" } else { "beta" };
        let _ = writeln!(
            out,
            "job name=j{i} tenant={tenant} workload={program} ranks={ranks} {param} arrive={arrive:.9}"
        );
    }
    out
}

/// Messages of the `vbus-sim.p2p_ns` microkernel.
const P2P_MESSAGES: usize = 200_000;
/// Broadcasts of the `vbus-sim.bcast_ns` microkernel.
const BROADCASTS: usize = 20_000;
/// PUTs per slave of the `mpi2.put_fence_us` microkernel.
const PUTS_PER_SLAVE: usize = 2_000;

/// `(src, dst, bytes)` of each microkernel message: distinct endpoints
/// on the 16-node mesh, 64 B to 16 KiB.
pub fn p2p_pattern(seed: u64) -> Vec<(usize, usize, usize)> {
    let mut rng = Rng::new(seed, 2);
    (0..P2P_MESSAGES)
        .map(|_| {
            let src = rng.below(layers::KERNEL_RANKS);
            let dst = (src + 1 + rng.below(layers::KERNEL_RANKS - 1)) % layers::KERNEL_RANKS;
            (src, dst, 64 << rng.below(9))
        })
        .collect()
}

/// `(src, bytes)` of each microkernel broadcast.
pub fn bcast_pattern(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, 3);
    (0..BROADCASTS)
        .map(|_| (rng.below(layers::KERNEL_RANKS), 64 << rng.below(9)))
        .collect()
}

/// Window offset of each 4 KiB microkernel PUT.
pub fn put_offsets(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, 4);
    let slots = layers::KERNEL_WINDOW_ELEMS / layers::KERNEL_PUT_ELEMS;
    (0..PUTS_PER_SLAVE)
        .map(|_| rng.below(slots) * layers::KERNEL_PUT_ELEMS)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::is_valid_name;

    #[test]
    fn workload_names_and_reasons_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert_eq!(storm_jobfile(7), storm_jobfile(7));
        assert_ne!(storm_jobfile(7), storm_jobfile(8));
        assert_eq!(p2p_pattern(7), p2p_pattern(7));
        assert_ne!(p2p_pattern(7), p2p_pattern(8));
        assert_eq!(bcast_pattern(7), bcast_pattern(7));
        assert_ne!(bcast_pattern(7), bcast_pattern(8));
        assert_eq!(put_offsets(7), put_offsets(7));
        assert_ne!(put_offsets(7), put_offsets(8));
        for w in WORKLOADS.iter().filter(|w| w.seed_independent()) {
            assert_eq!(w.inputs(1).files, w.inputs(2).files, "{}", w.name);
        }
    }

    #[test]
    fn every_seed_submits_the_same_multiset_of_jobs() {
        let shape = |seed| {
            let mut jobs: Vec<String> = storm_jobfile(seed)
                .lines()
                .filter(|l| l.starts_with("job "))
                .map(|l| {
                    let fields: Vec<&str> = l.split(' ').collect();
                    // workload, ranks, param
                    fields[3..6].join(" ")
                })
                .collect();
            jobs.sort();
            jobs
        };
        assert_eq!(shape(1).len(), STORM_JOBS);
        assert_eq!(shape(1), shape(99));
    }

    #[test]
    fn patterns_stay_on_the_mesh_and_in_the_window() {
        for (src, dst, bytes) in p2p_pattern(3) {
            assert!(src < 16 && dst < 16 && src != dst);
            assert!((64..=16384).contains(&bytes));
        }
        for off in put_offsets(3) {
            assert!(off + layers::KERNEL_PUT_ELEMS <= layers::KERNEL_WINDOW_ELEMS);
        }
    }

    #[test]
    fn program_argv_starts_with_the_generated_file() {
        let inputs = find("swim_lint").unwrap().inputs(1);
        assert_eq!(inputs.files[0].0, "swim.f");
        assert_eq!(inputs.invocations[0].argv[0], "swim.f");
        assert_eq!(inputs.invocations[0].exit, 1);
        assert_eq!(find("job_storm").unwrap().inputs(1).invocations.len(), 3);
        assert_eq!(find("mm_full").unwrap().mm_order(), Some(144));
        assert_eq!(find("mm_wire").unwrap().mm_order(), None);
    }
}
