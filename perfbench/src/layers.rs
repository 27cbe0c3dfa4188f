//! The frozen surface: the one file of this package that calls into
//! the crates under `crates/`. Everything the traced run times goes
//! through a public crate-root entry point named here (the same ones
//! `vpce::cli` and `crates/bench` use), each inside a span; a refactor
//! that keeps this file compiling keeps the per-layer ledger alive.
//! `perfbench/README.md` lists the functions.
//!
//! Three kinds of code live here:
//!
//! * **pipelines** replay what one `vpcec` invocation does, call for
//!   call, and render the same report text, so the spawned binary's
//!   output can be held against them;
//! * **probes** time a layer entry point the pipeline reaches only
//!   nested inside another call, on the workload's own plan;
//! * **microkernels** time `mpi2`, `vbus-sim` and `machine` on seeded
//!   patterns that do not depend on the workload.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;

use cluster_sim::ClusterConfig;
use lmad::{Granularity, Lmad, TransferPlan};
use mpi2::{RankStats, TransportPolicy, Universe};
use polaris_be::{BackendOptions, CompiledProgram};
use polaris_fe::AnalyzedProgram;
use spmd_rt::{ExecMode, FaultSpec, RunReport};
use vbus_sim::{NetConfig, NetSim};
use vpce::cli::{CliArgs, Outcome};
use vpce_sched::{BatchOptions, BatchReport, BatchSpec, JobSource};
use vpce_serve::{Daemon, FileStorage, KillStorage, Runner, Storage};
use vpce_trace::Tracer;

use crate::span::Spans;

/// The F77-mini programs the single-program workloads compile.
pub const MM_SOURCE: &str = vpce_workloads::mm::SOURCE;
pub const SWIM_SOURCE: &str = vpce_workloads::swim::SOURCE;

/// Exact counts (and virtual times) a pipeline, probe or microkernel
/// observed, and unit costs it measured, by per-layer metric name.
#[derive(Debug, Default, Clone)]
pub struct Observed {
    pub counts: Vec<(&'static str, f64)>,
    pub times: Vec<(&'static str, f64)>,
}

impl Observed {
    fn count(&mut self, name: &'static str, value: impl TryInto<u64>) {
        let v = value.try_into().ok().expect("count fits u64");
        self.counts.push((name, v as f64));
    }
}

/// What one replayed `vpcec` invocation printed and how it exited.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    pub text: String,
    pub exit: i32,
}

/// Message-count guard the planner lowers transfers under
/// (`polaris-be`'s own `PLAN_LIMIT`).
const LOWER_LIMIT: u64 = 1 << 20;

// ---------------------------------------------------------------------
// Single-program pipeline: `vpcec <file.f> …`
// ---------------------------------------------------------------------

/// What the program pipeline leaves behind for the probes.
pub struct ProgramRun {
    pub rendered: Rendered,
    pub observed: Observed,
    args: CliArgs,
    cluster: ClusterConfig,
    base: BackendOptions,
    analyzed: AnalyzedProgram,
    compiled: CompiledProgram,
    parallel: Option<RunReport>,
}

/// Replay `vpcec <argv>` on `source`, step for step as `vpce::cli::run`
/// takes them, one span per layer call under a `core.pipeline` root.
/// Covers plain, `--advise` and `--lint` invocations on the paper
/// machine — the shapes the benchmark's workloads use.
pub fn program_pipeline(
    spans: &mut Spans,
    source: &str,
    argv: &[String],
) -> Result<ProgramRun, String> {
    let args = vpce::cli::parse_args(argv)?;
    if args.verify
        || args.machine.is_some()
        || args.prototype
        || args.recover.is_some()
        || args.trace.is_some()
        || args.trace_summary
        || args.show_report
        || !args.faults.is_off()
    {
        return Err(format!(
            "the traced replay does not cover `{}`",
            argv.join(" ")
        ));
    }
    spans.scope("core", "core.pipeline", |spans| {
        let cluster = ClusterConfig::paper_n(args.nodes);
        let params: Vec<(&str, i64)> = args.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let mut base = BackendOptions::new(args.nodes)
            .avpg(!args.no_avpg)
            .pull(args.pull)
            .unsafe_collect(args.unsafe_collect);
        if let Some(s) = args.schedule {
            base = base.schedule(s);
        }
        let mut text = String::new();
        let mut observed = Observed::default();

        let granularity = match args.granularity {
            Some(g) => g,
            None => {
                let (winner, measured) = spans
                    .scope("core", "core.advisor", |_| {
                        vpce::advise_granularity(source, &params, &cluster, &base)
                    })
                    .map_err(|e| e.to_string())?;
                if args.advise {
                    let _ = writeln!(text, "granularity advisor:");
                    for (g, t) in &measured {
                        let _ = writeln!(text, "  {:>6}: {:.3} ms comm", g.name(), t * 1e3);
                    }
                    let _ = writeln!(text, "  picked: {}", winner.name());
                }
                winner
            }
        };
        let opts = base.clone().granularity(granularity);

        let analyzed = spans
            .scope("polaris-fe", "polaris-fe.compile", |_| {
                polaris_fe::compile(source, &params)
            })
            .map_err(|e| e.to_string())?;
        observed.count("polaris-fe.regions", analyzed.regions.len());
        let compiled = spans.scope("polaris-be", "polaris-be.plan", |_| {
            polaris_be::compile_backend(&analyzed, &opts)
        });
        let plan = &compiled.report;
        let sum =
            |f: fn(&polaris_be::RegionPlanInfo) -> usize| plan.regions.iter().map(f).sum::<usize>();
        observed.count(
            "polaris-be.transfers",
            sum(|r| r.scatter_msgs + r.collect_msgs),
        );
        observed.count("polaris-be.strided_msgs", sum(|r| r.strided_msgs));
        observed.count(
            "polaris-be.fallback_fine",
            sum(|r| r.collect_fallback_fine.len()),
        );
        observed.count("polaris-be.elided_elems", plan.elisions.elided_elems);

        let (exit, parallel) = if args.lint {
            let lint_opts = rmacheck::LintOptions {
                outputs_live: opts.outputs_live,
            };
            let lint = spans.scope("rmacheck", "rmacheck.lint", |_| {
                rmacheck::lint(&compiled.program, &compiled.report, &lint_opts)
            });
            observed.count("rmacheck.diagnostics", lint.diags.len());
            spans.scope("core", "core.render", |_| {
                text.push_str(&lint.render_human())
            });
            (Outcome::from_lint(lint.exit_code()).exit_code(), None)
        } else {
            let parallel = spans
                .scope("spmd-rt", "spmd-rt.exec", |_| {
                    spmd_rt::try_execute_traced(
                        &compiled.program,
                        &cluster,
                        args.mode,
                        Tracer::disabled(),
                        FaultSpec::off(),
                    )
                })
                .map_err(|e| e.to_string())?;
            let sequential = spans.scope("spmd-rt", "spmd-rt.seq", |_| {
                spmd_rt::execute_sequential(&compiled.program, &cluster.node.cpu, args.mode)
            });
            spans.scope("core", "core.render", |_| {
                let _ = writeln!(
                    text,
                    "{}: {} ranks, {} granularity",
                    compiled.program.name,
                    args.nodes,
                    granularity.name()
                );
                let _ = writeln!(
                    text,
                    "  sequential {:>12.6}s | parallel {:>12.6}s | speedup {:.3}x",
                    sequential.elapsed,
                    parallel.elapsed,
                    sequential.elapsed / parallel.elapsed
                );
                let _ = writeln!(
                    text,
                    "  communication {:.6}s | {} wire messages | {} wire bytes",
                    parallel.comm_time, parallel.net.p2p_messages, parallel.net.p2p_bytes
                );
                text.push_str(&vpce::report::describe_comm(&parallel.rank_stats));
                text.push_str(&vpce::report::describe_transport(
                    &TransportPolicy::from_config(&cluster),
                    &parallel.rank_stats,
                ));
                if args.mode == ExecMode::Full {
                    let identical = parallel.arrays == sequential.arrays;
                    let _ = writeln!(
                        text,
                        "  results identical to sequential execution: {identical}"
                    );
                }
            });
            let mut total = RankStats::default();
            for s in &parallel.rank_stats {
                total.merge(s);
            }
            observed.count("mpi2.rma_ops", total.rma_ops());
            observed.count("mpi2.fences", total.fences);
            observed.count("mpi2.barriers", total.barriers);
            observed.count("mpi2.eager_ops", total.eager_ops);
            observed.count("mpi2.rdvz_ops", total.rdvz_ops);
            observed.count("mpi2.bytes_put", total.bytes_put);
            observed.count("vbus-sim.p2p_messages", parallel.net.p2p_messages);
            observed.count("vbus-sim.p2p_bytes", parallel.net.p2p_bytes);
            observed.count("vbus-sim.broadcasts", parallel.net.broadcasts);
            observed
                .counts
                .push(("spmd-rt.virt_elapsed_s", parallel.elapsed));
            observed
                .counts
                .push(("spmd-rt.virt_comm_s", parallel.comm_time));
            (0, Some(parallel))
        };
        Ok(ProgramRun {
            rendered: Rendered { text, exit },
            observed,
            args,
            cluster,
            base,
            analyzed,
            compiled,
            parallel,
        })
    })
}

impl ProgramRun {
    /// Largest absolute difference between the parallel run's `C` and
    /// the native `vpce_workloads::mm::reference(n)` product — a check
    /// on MM that does not come from the interpreter under test.
    /// `None` when the run has no executed array `C` of that size.
    pub fn mm_reference_error(&self, n: usize) -> Option<f64> {
        let slot = self
            .compiled
            .program
            .arrays
            .iter()
            .position(|(name, _)| name == "C")?;
        let got = self.parallel.as_ref()?.arrays.get(slot)?;
        let (_, _, want) = vpce_workloads::mm::reference(n);
        (got.len() == want.len()).then(|| vpce_workloads::max_abs_diff(got, &want))
    }

    /// Time the layer entry points the pipeline only reaches nested
    /// inside `plan`, `lint` or `exec`, each as a root span on this
    /// run's own plan.
    pub fn probes(&self, spans: &mut Spans) -> Observed {
        let mut observed = Observed::default();

        // The advisor path plans every grain inside one opaque call;
        // plan each grain again in the open to see which one costs.
        if self.args.granularity.is_none() {
            for (g, name) in [
                (Granularity::Fine, "polaris-be.plan_fine"),
                (Granularity::Middle, "polaris-be.plan_middle"),
                (Granularity::Coarse, "polaris-be.plan_coarse"),
            ] {
                let opts = self.base.clone().granularity(g);
                spans.scope("polaris-be", name, |_| {
                    black_box(polaris_be::compile_backend(&self.analyzed, &opts));
                });
            }
        }

        self.lmad_probes(spans, &mut observed);

        if self.args.lint {
            let trace = spans.scope("rmacheck", "rmacheck.lower", |_| {
                rmacheck::lower(&self.compiled.program, &self.compiled.report)
            });
            observed.count(
                "rmacheck.events",
                trace.ranks.iter().map(Vec::len).sum::<usize>(),
            );
            let policy = TransportPolicy::from_config(&self.cluster);
            let verdict = spans.scope("commcheck", "commcheck.verify", |_| {
                commcheck::verify(
                    &self.compiled.program,
                    &policy,
                    &FaultSpec::off(),
                    &commcheck::VerifyOptions::default(),
                )
            });
            observed.count("commcheck.states", verdict.states);
        } else {
            // What a live tracer costs the run the pipeline just made.
            let tracer = Tracer::enabled();
            spans.scope("trace", "trace.exec_live", |_| {
                black_box(spmd_rt::execute_traced(
                    &self.compiled.program,
                    &self.cluster,
                    self.args.mode,
                    tracer.clone(),
                ));
            });
            observed.count("trace.events", tracer.events().len());
            let json = spans.scope("trace", "trace.export", |_| tracer.to_chrome_json());
            observed.count("trace.json_bytes", json.len());
        }
        observed
    }

    /// `lmad` on the plan's compute-phase write footprints: the exact
    /// overlap test over all cross-rank pairs of one array in one
    /// region (what the §5.6 safety check and the static checker ask),
    /// `any_overlap` over the same groups, and transfer lowering of
    /// every footprint at fine and middle grain.
    fn lmad_probes(&self, spans: &mut Spans, observed: &mut Observed) {
        // One group per (region, array): every rank's footprint on it.
        let mut groups: Vec<Vec<Lmad>> = Vec::new();
        for region in &self.compiled.report.regions {
            let mut by_array: std::collections::BTreeMap<usize, Vec<Lmad>> = Default::default();
            for rank in &region.rank_writes {
                for (array, footprint) in rank {
                    by_array.entry(*array).or_default().push(footprint.clone());
                }
            }
            groups.extend(by_array.into_values());
        }
        let pair_tests: usize = groups
            .iter()
            .map(|g| g.len() * g.len().saturating_sub(1) / 2)
            .sum();
        observed.count("lmad.pair_tests", pair_tests);
        // One sweep is microseconds; repeat it so the clock resolves it.
        let sweeps = (200_000 / pair_tests.max(1)).clamp(1, 10_000);
        let mut hits = 0usize;
        spans.scope("lmad", "lmad.overlaps", |_| {
            for _ in 0..sweeps {
                for group in &groups {
                    for (i, a) in group.iter().enumerate() {
                        for b in &group[i + 1..] {
                            hits += usize::from(black_box(a).overlaps(black_box(b)));
                        }
                    }
                }
            }
        });
        black_box(hits);
        let per_test = spans.total("lmad.overlaps") / (sweeps * pair_tests.max(1)) as f64;
        observed.times.push(("lmad.overlap_ns", per_test * 1e9));

        spans.scope("lmad", "lmad.any_overlap", |_| {
            for group in &groups {
                black_box(lmad::any_overlap(black_box(group)));
            }
        });
        let mut transfers = 0usize;
        spans.scope("lmad", "lmad.lower", |_| {
            for footprint in groups.iter().flatten() {
                for g in [Granularity::Fine, Granularity::Middle] {
                    transfers += TransferPlan::lower(footprint, g, LOWER_LIMIT).num_messages();
                }
            }
        });
        observed.count("lmad.lower_transfers", transfers);
    }
}

// ---------------------------------------------------------------------
// job_storm pipeline: `--batch F`, `--serve F --journal J` twice
// ---------------------------------------------------------------------

fn storm_args(argv: &[String]) -> Result<CliArgs, String> {
    let args = vpce::cli::parse_args(argv)?;
    if args.machine.is_some()
        || args.kill_after.is_some()
        || args.status.is_some()
        || args.trace.is_some()
    {
        return Err(format!(
            "the traced replay does not cover `{}`",
            argv.join(" ")
        ));
    }
    Ok(args)
}

/// Replay `vpcec --batch <jobfile>` as `vpce::cli::run_batch` does:
/// parse, then the whole batch through the gang scheduler.
pub fn batch_pipeline(
    spans: &mut Spans,
    jobfile: &str,
    argv: &[String],
) -> Result<(Rendered, Observed), String> {
    let args = storm_args(argv)?;
    let path = args.batch.clone().ok_or("not a --batch invocation")?;
    spans.scope("core", "core.pipeline", |spans| {
        let spec = spans
            .scope("sched", "sched.parse", |_| {
                BatchSpec::parse_named(jobfile, &path)
            })
            .map_err(|e| e.to_string())?;
        let opts = BatchOptions {
            nodes: args.nodes,
            seed: args.sched_seed,
            mode: args.mode,
            probation: args.probation,
            ..BatchOptions::default()
        };
        let loader = |p: &str| Err(format!("benchmark jobs are self-contained: `{p}`"));
        let report = spans.scope("sched", "sched.batch", |_| {
            vpce_sched::run_batch(&spec, &opts, &loader)
        })?;
        let text = spans.scope("core", "core.render", |_| report.render_human());
        let mut observed = Observed::default();
        observed.count("sched.jobs", report.records.len());
        observed.count("trace.json_bytes", report.trace_json.len());
        count_wire(&report, &mut observed);
        let exit = Outcome::from_batch(report.exit_code()).exit_code();
        Ok((Rendered { text, exit }, observed))
    })
}

fn count_wire(report: &BatchReport, observed: &mut Observed) {
    observed.count(
        "vbus-sim.p2p_messages",
        report.records.iter().map(|r| r.net_messages).sum::<u64>(),
    );
    observed.count(
        "vbus-sim.p2p_bytes",
        report.records.iter().map(|r| r.net_bytes).sum::<u64>(),
    );
}

/// Replay one `vpcec --serve <script> --journal <path>` incarnation as
/// `vpce::cli::run_serve` does over a `FileStorage`: open (recovering
/// whatever the journal holds), submit the lines beyond the durable
/// prefix, drain. On a sealed journal the whole incarnation is one
/// `serve.recover` span; on a fresh one ingest and drain are spans of
/// their own.
pub fn serve_pipeline(
    spans: &mut Spans,
    script_text: &str,
    argv: &[String],
    cwd: &Path,
) -> Result<(Rendered, Observed), String> {
    let args = storm_args(argv)?;
    args.serve.as_ref().ok_or("not a --serve invocation")?;
    let journal = cwd.join(args.journal.as_ref().ok_or("the replay needs --journal")?);
    let journal = journal
        .to_str()
        .ok_or("journal path is not UTF-8")?
        .to_string();
    let recovering = std::fs::metadata(&journal).is_ok_and(|m| m.len() > 0);
    let (open, ingest, drain) = if recovering {
        ("serve.reopen", "serve.resubmit", "serve.replay")
    } else {
        ("serve.open", "serve.ingest", "serve.drain")
    };
    let session = |spans: &mut Spans| -> Result<(Rendered, Observed), String> {
        let runner = Runner::new(args.mode);
        let script = vpce_serve::script_lines(script_text);
        let mut file = FileStorage::open(&journal).map_err(|e| e.to_string())?;
        let mut text = String::new();
        let mut observed = Observed::default();
        let report_text;
        let exit;
        {
            let mut storage =
                KillStorage::new(&mut file as &mut dyn Storage, None).map_err(|e| e.to_string())?;
            let (mut daemon, recovery) = spans
                .scope("serve", open, |_| Daemon::open(&mut storage, &runner))
                .map_err(|e| e.to_string())?;
            if recovery.inputs > 0 || recovery.prior_recoveries > 0 {
                let _ = writeln!(
                    text,
                    "vpced: recovered {} inputs, {} derived ops from the journal (recovery #{})",
                    recovery.inputs,
                    recovery.derived,
                    recovery.prior_recoveries + 1
                );
            }
            let durable = daemon.inputs().len();
            spans
                .scope("serve", ingest, |_| {
                    script
                        .iter()
                        .skip(durable)
                        .try_for_each(|line| daemon.submit(line))
                })
                .map_err(|e| e.to_string())?;
            spans
                .scope("serve", drain, |_| daemon.drain())
                .map_err(|e| e.to_string())?;
            report_text = spans.scope("core", "core.render", |_| daemon.report().render_human());
            exit = Outcome::from_batch(daemon.report().exit_code()).exit_code();
            count_wire(daemon.report(), &mut observed);
        }
        text.push_str(&report_text);
        if !recovering {
            let sealed = std::fs::metadata(&journal).map_err(|e| e.to_string())?;
            observed.count("serve.journal_bytes", sealed.len());
        }
        Ok((Rendered { text, exit }, observed))
    };
    spans.scope("core", "core.pipeline", |spans| {
        if recovering {
            spans.scope("serve", "serve.recover", session)
        } else {
            session(spans)
        }
    })
}

/// Front-end compile of every job's program — the per-job cost the
/// scheduler pays nested inside admission, timed in the open.
pub fn storm_probes(spans: &mut Spans, jobfile: &str) -> Result<Observed, String> {
    let spec = BatchSpec::parse(jobfile).map_err(|e| e.to_string())?;
    let mut regions = 0usize;
    spans.scope("polaris-fe", "polaris-fe.compile", |_| {
        for job in &spec.jobs {
            let source = match &job.source {
                JobSource::Workload(w) if w == "mm" => vpce_workloads::mm::SOURCE,
                JobSource::Workload(w) if w == "swim" => vpce_workloads::swim::SOURCE,
                JobSource::Workload(w) if w == "cfft" => vpce_workloads::cfft::SOURCE,
                other => return Err(format!("job `{}`: unexpected source {other:?}", job.name)),
            };
            let params: Vec<(&str, i64)> =
                job.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            regions += polaris_fe::compile(source, &params)
                .map_err(|e| e.to_string())?
                .regions
                .len();
        }
        Ok(())
    })?;
    let mut observed = Observed::default();
    observed.count("polaris-fe.regions", regions);
    Ok(observed)
}

// ---------------------------------------------------------------------
// Microkernels
// ---------------------------------------------------------------------

/// Ranks of the microkernel `Universe` and nodes of its 4×4 mesh.
pub const KERNEL_RANKS: usize = 16;
/// Elements per rank of the microkernel window (512 KiB).
pub const KERNEL_WINDOW_ELEMS: usize = 1 << 16;
/// Elements per microkernel PUT (4 KiB).
pub const KERNEL_PUT_ELEMS: usize = 4096 / mpi2::ELEM_BYTES;

const BARRIERS: usize = 2_000;
const SPAWNS: usize = 200;
const MACHINE_LOADS: usize = 200;

/// `examples/machines/torus3d.machine` without its comments: the paper
/// machine layered under a 3-D torus.
const TORUS3D_MACHINE: &str =
    "[machine]\ninclude = paper\nname = torus3d\n\n[topology]\nkind = torus3d\n";

/// Unit costs of `vbus-sim`, `mpi2` and `machine` on seeded patterns:
/// `p2p` is `(src, dst, bytes)` per message, `bcast` `(src, bytes)` per
/// broadcast, `put_offsets` the window offset of each PUT the master
/// sends to every slave.
pub fn microkernels(
    spans: &mut Spans,
    p2p: &[(usize, usize, usize)],
    bcast: &[(usize, usize)],
    put_offsets: &[usize],
) -> Observed {
    let mut observed = Observed::default();

    // Messages become ready a microsecond apart, so paths contend.
    let mut net = NetSim::new(NetConfig::vbus_skwp(KERNEL_RANKS));
    spans.scope("vbus-sim", "vbus-sim.p2p", |_| {
        for (i, &(src, dst, bytes)) in p2p.iter().enumerate() {
            black_box(net.p2p(src, dst, bytes, i as f64 * 1e-6));
        }
    });
    observed.times.push((
        "vbus-sim.p2p_ns",
        spans.total("vbus-sim.p2p") / p2p.len() as f64 * 1e9,
    ));
    let mut net = NetSim::new(NetConfig::vbus_skwp(KERNEL_RANKS));
    spans.scope("vbus-sim", "vbus-sim.bcast", |_| {
        for (i, &(src, bytes)) in bcast.iter().enumerate() {
            black_box(net.vbus_broadcast(src, bytes, i as f64 * 1e-5));
        }
    });
    observed.times.push((
        "vbus-sim.bcast_ns",
        spans.total("vbus-sim.bcast") / bcast.len() as f64 * 1e9,
    ));

    let universe = Universe::new(ClusterConfig::paper_n(KERNEL_RANKS));
    spans.scope("mpi2", "mpi2.put_fence", |_| {
        universe.run(|mpi| {
            let window = mpi.win_create(KERNEL_WINDOW_ELEMS);
            if mpi.rank() == 0 {
                for &offset in put_offsets {
                    for slave in 1..KERNEL_RANKS {
                        mpi.put_region(&window, slave, offset, KERNEL_PUT_ELEMS);
                    }
                }
            }
            mpi.fence_all();
        });
    });
    let puts = put_offsets.len() * (KERNEL_RANKS - 1);
    observed.times.push((
        "mpi2.put_fence_us",
        spans.total("mpi2.put_fence") / puts as f64 * 1e6,
    ));
    spans.scope("mpi2", "mpi2.barrier", |_| {
        universe.run(|mpi| {
            for _ in 0..BARRIERS {
                mpi.barrier();
            }
        });
    });
    observed.times.push((
        "mpi2.barrier_us",
        spans.total("mpi2.barrier") / BARRIERS as f64 * 1e6,
    ));
    let small = Universe::new(ClusterConfig::paper_n(4));
    spans.scope("mpi2", "mpi2.spawn", |_| {
        for _ in 0..SPAWNS {
            small.run(|mpi| black_box(mpi.rank()));
        }
    });
    observed.times.push((
        "mpi2.spawn_us",
        spans.total("mpi2.spawn") / SPAWNS as f64 * 1e6,
    ));

    spans.scope("machine", "machine.load", |_| {
        for _ in 0..MACHINE_LOADS {
            let spec = vpce_machine::parse(black_box(TORUS3D_MACHINE))
                .expect("embedded description parses");
            black_box(
                spec.lower(KERNEL_RANKS)
                    .expect("a 16-node 3-D torus exists"),
            );
        }
    });
    observed.times.push((
        "machine.load_us",
        spans.total("machine.load") / MACHINE_LOADS as f64 * 1e6,
    ));
    observed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Replay `args` on `source` twice; the counts and the report must
    /// repeat exactly, and the report must be the one `vpce::cli::run`
    /// (what the binary prints) renders.
    fn replay_twice(source: &str, args: &str) -> (ProgramRun, Spans) {
        let mut spans = Spans::default();
        let first = program_pipeline(&mut spans, source, &argv(args)).unwrap();
        let mut again = Spans::default();
        let second = program_pipeline(&mut again, source, &argv(args)).unwrap();
        assert_eq!(first.observed.counts, second.observed.counts, "{args}");
        assert_eq!(first.rendered, second.rendered, "{args}");
        let cli = vpce::cli::run(source, &vpce::cli::parse_args(&argv(args)).unwrap()).unwrap();
        assert_eq!(
            (first.rendered.text.as_str(), first.rendered.exit),
            (cli.text.as_str(), cli.exit)
        );
        let (a, b) = (first.probes(&mut spans), second.probes(&mut again));
        assert_eq!(a.counts, b.counts, "{args}");
        (first, spans)
    }

    fn count(observed: &Observed, name: &str) -> Option<f64> {
        observed
            .counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    #[test]
    fn full_numeric_replay_matches_the_cli_and_the_native_reference() {
        let (run, spans) = replay_twice(MM_SOURCE, "mm.f --nodes 4 --param N=16 --grain coarse");
        assert!(run
            .rendered
            .text
            .contains("results identical to sequential execution: true"));
        assert!(run.mm_reference_error(16).unwrap() < 1e-12);
        assert_eq!(
            run.mm_reference_error(17),
            None,
            "wrong order has no reference"
        );
        assert!(count(&run.observed, "vbus-sim.p2p_messages").unwrap() > 0.0);
        assert!(spans.coverage("core.pipeline") > 0.9);
        // A fixed grain plans once; the per-grain probes stay out.
        assert_eq!(spans.total("polaris-be.plan_middle"), 0.0);
        assert!(spans.total("trace.exec_live") > 0.0);
    }

    #[test]
    fn advisor_replay_prints_the_comparison_and_probes_every_grain() {
        let (run, spans) =
            replay_twice(MM_SOURCE, "mm.f --nodes 4 --param N=16 --analytic --advise");
        assert!(run.rendered.text.starts_with("granularity advisor:\n"));
        for name in [
            "core.advisor",
            "polaris-be.plan_fine",
            "polaris-be.plan_middle",
            "polaris-be.plan_coarse",
        ] {
            assert!(spans.total(name) > 0.0, "{name}");
        }
    }

    #[test]
    fn lint_replay_reports_diagnostics_and_checker_counts() {
        let (run, spans) = replay_twice(
            SWIM_SOURCE,
            "swim.f --nodes 4 --param N=16 --grain fine --lint",
        );
        assert!(run
            .rendered
            .text
            .lines()
            .last()
            .unwrap()
            .starts_with("lint: SWIM:"));
        assert!(count(&run.observed, "rmacheck.diagnostics").is_some());
        assert!(spans.total("rmacheck.lint") > 0.0 && spans.total("commcheck.verify") > 0.0);
        // Lint mode does not execute, so nothing is traced.
        assert_eq!(spans.total("trace.exec_live"), 0.0);
    }

    #[test]
    fn replay_refuses_invocations_it_does_not_cover() {
        let mut spans = Spans::default();
        for args in [
            "mm.f --verify",
            "mm.f --machine torus3d",
            "mm.f --faults light",
            "mm.f --bogus",
        ] {
            assert!(
                program_pipeline(&mut spans, MM_SOURCE, &argv(args)).is_err(),
                "{args}"
            );
        }
        assert!(batch_pipeline(&mut spans, "", &argv("mm.f")).is_err());
    }

    #[test]
    fn storm_replay_repeats_and_recovers_the_first_report() {
        // The real generator's header and first dozen jobs.
        let jobfile: String = crate::workloads::storm_jobfile(1)
            .lines()
            .take(18)
            .map(|l| format!("{l}\n"))
            .collect();
        let replay = |tag: &str| {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out/tmp")
                .join(format!("{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut spans = Spans::default();
            let batch = batch_pipeline(&mut spans, &jobfile, &argv("--batch storm.jobs")).unwrap();
            let serve = argv("--serve storm.jobs --journal vpced.journal");
            let fresh = serve_pipeline(&mut spans, &jobfile, &serve, &dir).unwrap();
            let recovered = serve_pipeline(&mut spans, &jobfile, &serve, &dir).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            (batch, fresh, recovered, spans)
        };
        let (batch, fresh, recovered, spans) = replay("storm-a");
        let (batch2, fresh2, recovered2, _) = replay("storm-b");
        for (a, b) in [
            (&batch, &batch2),
            (&fresh, &fresh2),
            (&recovered, &recovered2),
        ] {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.counts, b.1.counts);
        }
        assert_eq!(count(&batch.1, "sched.jobs"), Some(12.0));
        assert!(count(&fresh.1, "serve.journal_bytes").unwrap() > 0.0);
        assert_eq!(count(&recovered.1, "serve.journal_bytes"), None);
        let (line, rest) = recovered.0.text.split_once('\n').unwrap();
        assert!(line.starts_with("vpced: recovered 17 inputs"), "{line}");
        assert_eq!(rest, fresh.0.text);
        for name in [
            "sched.parse",
            "sched.batch",
            "serve.ingest",
            "serve.drain",
            "serve.recover",
        ] {
            assert!(spans.total(name) > 0.0, "{name}");
        }
        let mut spans = Spans::default();
        let probed = storm_probes(&mut spans, &jobfile).unwrap();
        assert!(count(&probed, "polaris-fe.regions").unwrap() >= 12.0);
    }

    #[test]
    fn microkernels_report_every_unit_cost() {
        let mut spans = Spans::default();
        let observed = microkernels(
            &mut spans,
            &[(0, 5, 4096), (3, 12, 64)],
            &[(2, 1024)],
            &[0, KERNEL_PUT_ELEMS],
        );
        let names: Vec<&str> = observed.times.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "vbus-sim.p2p_ns",
                "vbus-sim.bcast_ns",
                "mpi2.put_fence_us",
                "mpi2.barrier_us",
                "mpi2.spawn_us",
                "machine.load_us"
            ]
        );
        assert!(observed.times.iter().all(|(_, v)| *v > 0.0));
    }
}
