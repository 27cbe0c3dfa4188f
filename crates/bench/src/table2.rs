//! Table 2 — "Communication time for matrix multiplication, swim and
//! CFFZINIT of TFFT" at the three §5.6 granularities.
//!
//! The reproduced quantities per (workload, granularity):
//! critical-path communication time, message count, strided (PIO)
//! message count, wire volume, and redundancy versus the exact
//! regions. MM is reported under both schedules: block (the §5.3
//! default for its rectangular loops — per-column transfers) and
//! cyclic (interleaved rows — the strided-PUT shape that makes the
//! middle grain pay, matching the paper's "middle worse than fine"
//! observation).

use cluster_sim::ClusterConfig;
use lmad::Granularity;
use polaris_be::BackendOptions;
use spmd_rt::{ExecMode, Schedule};
use vpce_diag::json::{self, Layout};
use vpce_workloads::{cfft, mm, swim};

/// The paper's Table 2 (seconds); `None` marks the entry the paper
/// prints as "*" (SWIM at middle grain).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PaperRow {
    pub name: &'static str,
    pub fine: Option<f64>,
    pub middle: Option<f64>,
    pub coarse: Option<f64>,
}

/// Paper values as printed (the MM row's text and numbers disagree —
/// see EXPERIMENTS.md).
pub(crate) const PAPER: [PaperRow; 3] = [
    PaperRow {
        name: "MM(1024*1024)",
        fine: Some(0.72),
        middle: Some(0.89),
        coarse: Some(0.01128),
    },
    PaperRow {
        name: "Swim(ITMAX=1)",
        fine: Some(0.20590),
        middle: None,
        coarse: Some(0.072166),
    },
    PaperRow {
        name: "CFFZINIT(M=11)",
        fine: Some(0.3584),
        middle: Some(0.0768),
        coarse: Some(0.0068),
    },
];

/// One measured cell.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    pub workload: String,
    pub granularity: Granularity,
    /// Critical-path communication time, seconds.
    pub comm_time: f64,
    pub messages: usize,
    pub strided_messages: usize,
    pub wire_bytes: u64,
    /// Wire elements over exact elements (>= 1).
    pub redundancy: f64,
    /// Arrays whose collection fell back to fine grain under the §5.6
    /// overlap check.
    pub overlap_fallbacks: usize,
}

/// Benchmark descriptor for the sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bench {
    pub name: &'static str,
    pub source: &'static str,
    pub params: (&'static str, i64),
    pub schedule: Option<Schedule>,
}

/// The paper's three benchmarks at their §6 sizes, plus the cyclic MM
/// variant.
pub(crate) fn paper_benches() -> Vec<Bench> {
    vec![
        Bench {
            name: "MM(1024,block)",
            source: mm::SOURCE,
            params: ("N", 1024),
            schedule: None,
        },
        Bench {
            name: "MM(1024,cyclic)",
            source: mm::SOURCE,
            params: ("N", 1024),
            schedule: Some(Schedule::Cyclic),
        },
        Bench {
            name: "SWIM(512)",
            source: swim::SOURCE,
            params: ("N", 512),
            schedule: None,
        },
        Bench {
            name: "CFFT2INIT(M=11)",
            source: cfft::SOURCE,
            params: ("M", 11),
            schedule: None,
        },
    ]
}

/// Measure one (bench, granularity) cell on the given cluster.
pub(crate) fn measure(bench: &Bench, g: Granularity, cluster: &ClusterConfig) -> Cell {
    let nprocs = cluster.num_nodes();
    let mut opts = BackendOptions::new(nprocs).granularity(g);
    if let Some(s) = bench.schedule {
        opts = opts.schedule(s);
    }
    let compiled =
        vpce::compile(bench.source, &[bench.params], &opts).expect("workload compiles");
    let rep = spmd_rt::execute(&compiled.program, cluster, ExecMode::Analytic);
    let mut messages = 0;
    let mut strided = 0;
    let mut total = 0u64;
    let mut fallbacks = 0;
    for region in compiled.program.regions() {
        for plan in [&region.scatter, &region.collect] {
            messages += plan.num_messages();
            strided += plan.strided_messages();
            total += plan.total_elems();
        }
    }
    for info in &compiled.report.regions {
        fallbacks += info.collect_fallback_fine.len();
    }
    // Exact need: the fine plan of the same program.
    let exact = {
        let mut fine_opts = BackendOptions::new(nprocs).granularity(Granularity::Fine);
        if let Some(s) = bench.schedule {
            fine_opts = fine_opts.schedule(s);
        }
        let fine = vpce::compile(bench.source, &[bench.params], &fine_opts).unwrap();
        let (_, fine_elems) = fine.program.comm_summary();
        fine_elems
    };
    Cell {
        workload: bench.name.to_string(),
        granularity: g,
        comm_time: rep.comm_time,
        messages,
        strided_messages: strided,
        wire_bytes: total * 8,
        redundancy: total as f64 / exact.max(1) as f64,
        overlap_fallbacks: fallbacks,
    }
}

/// Measure the full Table-2 grid.
pub(crate) fn sweep(cluster: &ClusterConfig) -> Vec<Cell> {
    let mut out = Vec::new();
    for b in paper_benches() {
        for g in Granularity::ALL {
            out.push(measure(&b, g, cluster));
        }
    }
    out
}

/// Print the grid.
pub(crate) fn print_sweep(title: &str, cells: &[Cell]) {
    println!("\n== Table 2: communication time by granularity ({title}) ==");
    println!(
        "{:>18} {:>8} {:>10} {:>8} {:>8} {:>10} {:>7} {:>9}",
        "workload", "grain", "comm", "msgs", "strided", "wire", "redund", "fallback"
    );
    for c in cells {
        println!(
            "{:>18} {:>8} {:>10} {:>8} {:>8} {:>9}B {:>7.2} {:>9}",
            c.workload,
            c.granularity.name(),
            crate::fmt_secs(c.comm_time),
            c.messages,
            c.strided_messages,
            c.wire_bytes,
            c.redundancy,
            c.overlap_fallbacks,
        );
    }
}

/// Print the paper's Table 2 as published.
pub(crate) fn print_paper() {
    println!("\npaper Table 2 for reference (seconds; * = not reported):");
    println!(
        "{:>18} {:>10} {:>10} {:>10}",
        "workload", "fine", "middle", "coarse"
    );
    for row in PAPER {
        let f = |v: Option<f64>| v.map_or("*".to_string(), |x| format!("{x}"));
        println!(
            "{:>18} {:>10} {:>10} {:>10}",
            row.name,
            f(row.fine),
            f(row.middle),
            f(row.coarse)
        );
    }
    println!("\nSee EXPERIMENTS.md for the shape analysis (the paper's MM row");
    println!("is internally inconsistent with its own link-rate claims).");
}

/// The committed `BENCH_table2.json`.
pub(crate) fn json_doc(cells: &[Cell]) -> String {
    json::document(Layout::Block(2), |o| {
        let mut rows = o.array("cells", Layout::Block(4));
        for c in cells {
            rows.object(Layout::Inline)
                .str("workload", &c.workload)
                .str("granularity", c.granularity.name())
                .num("comm_time", c.comm_time)
                .int("messages", c.messages)
                .int("strided_messages", c.strided_messages)
                .int("wire_bytes", c.wire_bytes)
                .num("redundancy", c.redundancy)
                .int("overlap_fallbacks", c.overlap_fallbacks);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(src: &'static str, params: (&'static str, i64), g: Granularity) -> Cell {
        let b = Bench {
            name: "t",
            source: src,
            params,
            schedule: None,
        };
        measure(&b, g, &ClusterConfig::paper_4node())
    }

    #[test]
    fn cfft_shape_matches_paper() {
        // At the paper's size (M=11): fine uses strided PIO and is the
        // slowest; middle converts to contiguous with ~2x redundancy
        // and wins; coarse merges the interleaved regions into one
        // exact contiguous block and wins more.
        let fine = cell(cfft::SOURCE, ("M", 11), Granularity::Fine);
        let middle = cell(cfft::SOURCE, ("M", 11), Granularity::Middle);
        let coarse = cell(cfft::SOURCE, ("M", 11), Granularity::Coarse);
        assert!(fine.strided_messages > 0);
        assert_eq!(middle.strided_messages, 0);
        assert!(
            middle.comm_time < fine.comm_time,
            "middle {} vs fine {}",
            middle.comm_time,
            fine.comm_time
        );
        assert!(coarse.comm_time < middle.comm_time);
        assert!((1.5..2.5).contains(&middle.redundancy));
    }

    #[test]
    fn swim_coarse_beats_fine() {
        // Setup-dominated regime: per-column messages at fine grain
        // versus a handful of bounding transfers at coarse.
        let fine = cell(swim::SOURCE, ("N", 64), Granularity::Fine);
        let coarse = cell(swim::SOURCE, ("N", 64), Granularity::Coarse);
        assert!(
            coarse.comm_time < fine.comm_time,
            "coarse {} vs fine {}",
            coarse.comm_time,
            fine.comm_time
        );
        assert!(coarse.messages < fine.messages / 4);
    }

    #[test]
    fn mm_cyclic_middle_worse_than_fine() {
        // The paper's MM observation: "at the middle grain,
        // communication cost increases" — redundant contiguous data
        // outweighs the saved PIO.
        let b = Bench {
            name: "mm-cyc",
            source: mm::SOURCE,
            params: ("N", 256),
            schedule: Some(Schedule::Cyclic),
        };
        let cluster = ClusterConfig::paper_4node();
        let fine = measure(&b, Granularity::Fine, &cluster);
        let middle = measure(&b, Granularity::Middle, &cluster);
        assert!(fine.strided_messages > 0, "cyclic MM uses strided PUTs");
        assert!(
            middle.comm_time > fine.comm_time,
            "middle {} should exceed fine {}",
            middle.comm_time,
            fine.comm_time
        );
    }

    #[test]
    fn mm_coarse_triggers_overlap_fallback_under_cyclic() {
        // §5.6's safety check in action: interleaved rows make the
        // slaves' approximate collect regions overlap.
        let b = Bench {
            name: "mm-cyc",
            source: mm::SOURCE,
            params: ("N", 128),
            schedule: Some(Schedule::Cyclic),
        };
        let coarse = measure(&b, Granularity::Coarse, &ClusterConfig::paper_4node());
        assert!(coarse.overlap_fallbacks > 0);
    }

    #[test]
    fn json_export_is_wellformed() {
        let c = cell(cfft::SOURCE, ("M", 6), Granularity::Middle);
        let json = json_doc(std::slice::from_ref(&c));
        assert!(json.contains("\"workload\": \"t\""), "{json}");
        assert!(json.contains("\"granularity\": \"middle\""), "{json}");
        assert_eq!(json.matches('{').count(), 2);
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }

    #[test]
    fn redundancy_is_one_at_fine_grain() {
        for (src, params) in [
            (mm::SOURCE, ("N", 64i64)),
            (swim::SOURCE, ("N", 32)),
            (cfft::SOURCE, ("M", 6)),
        ] {
            let c = cell(src, params, Granularity::Fine);
            assert!(
                (c.redundancy - 1.0).abs() < 1e-12,
                "{src:.20}: {}",
                c.redundancy
            );
        }
    }
}
