//! Transport sweep — message size × protocol mode × pool size.
//!
//! The eager/rendezvous counterpart of the paper's Table-2: a neighbour
//! ring of one-sided PUTs swept across payload sizes that straddle the
//! derived threshold, run three ways — the policy's own choice
//! (`auto`), and both protocols forced via [`TransportPolicy::forced`]
//! so the crossover is *measured*, not assumed — and across registered
//! pool sizes, so the cost of a starved pool (fallbacks, waits) is a
//! row in the table rather than folklore.
//!
//! `vpce-bench transport` prints the grid; its document is the
//! committed `BENCH_transport.json`.

use cluster_sim::{ClusterConfig, Protocol};
use mpi2::{Mpi, TransportPolicy, Universe, ELEM_BYTES};
use vpce_diag::json::{self, Layout};

/// Ranks in the neighbour ring.
const RANKS: usize = 4;
/// PUTs each rank issues per epoch: more than the smallest pool swept,
/// so the 4-slot rows show starvation (eager fallbacks) that the
/// 16-slot rows absorb — and enough in-flight descriptors to exercise
/// doorbell ring batching.
const PUTS_PER_EPOCH: usize = 6;

/// Payload sizes in bytes, bracketing the few-KB threshold.
pub(crate) const SWEEP_BYTES: [usize; 5] = [64, 512, 4096, 65_536, 1 << 20];

/// Registered-pool sizes swept (slots per rank).
pub(crate) const POOL_SIZES: [usize; 2] = [4, 16];

/// The protocol-mode axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// The policy derived from the machine cost model decides.
    Auto,
    /// Every transfer forced eager (staged copy, no handshake).
    Eager,
    /// Every transfer forced rendezvous (RTS/CTS, zero-copy DMA).
    Rendezvous,
}

impl Mode {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Mode::Auto => "auto",
            Mode::Eager => "eager",
            Mode::Rendezvous => "rendezvous",
        }
    }

    pub(crate) const ALL: [Mode; 3] = [Mode::Auto, Mode::Eager, Mode::Rendezvous];
}

/// One (size, mode, pool) cell of the sweep.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    pub bytes: usize,
    pub mode: &'static str,
    pub slots: usize,
    /// Virtual elapsed time of the whole ring exchange, seconds.
    pub elapsed: f64,
    /// Payload bandwidth: total payload bytes over elapsed, bytes/s.
    pub bandwidth_bps: f64,
    pub eager_ops: u64,
    pub rdvz_ops: u64,
    pub eager_copy_s: f64,
    pub eager_fallbacks: u64,
    pub pool_waits: u64,
    pub pool_wait_s: f64,
    pub pool_hwm: u64,
    pub doorbells: u64,
    pub ring_batched: u64,
    pub rdvz_handshakes: u64,
    pub wire_bytes: u64,
}

/// Resolve the policy for one cell.
fn policy_for(mode: Mode, cfg: &ClusterConfig, bytes: usize, slots: usize) -> TransportPolicy {
    match mode {
        Mode::Auto => {
            let mut p = TransportPolicy::from_config(cfg);
            p.slots = slots;
            p
        }
        Mode::Eager => TransportPolicy::forced(Protocol::Eager, bytes, slots),
        Mode::Rendezvous => TransportPolicy::forced(Protocol::Rendezvous, bytes, slots),
    }
}

/// Run one cell: `epochs` rounds of a neighbour ring where every rank
/// PUTs `PUTS_PER_EPOCH` payloads of `bytes` to its successor.
fn run_cell(cfg: &ClusterConfig, mode: Mode, bytes: usize, slots: usize, epochs: usize) -> Cell {
    let elems = (bytes / ELEM_BYTES).max(1);
    let policy = policy_for(mode, cfg, bytes, slots);
    let uni = Universe::new(cfg.clone()).with_transport(policy);
    // One worker: a ring of fenced PUTs has nothing for a second thread
    // to do but hand rendezvous off (the outcome is the same on any).
    let out = uni
        .run_on(1, async move |mpi: &mut Mpi| {
            let w = mpi.win_create_async(elems * PUTS_PER_EPOCH).await?;
            let next = (mpi.rank() + 1) % mpi.size();
            for _ in 0..epochs {
                for p in 0..PUTS_PER_EPOCH {
                    mpi.put_region(&w, next, p * elems, elems)?;
                }
                mpi.fence_all_async().await?;
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
    let s = out.total_stats();
    let payload = (RANKS * PUTS_PER_EPOCH * epochs * elems * ELEM_BYTES) as f64;
    let elapsed = out.elapsed();
    Cell {
        bytes,
        mode: mode.name(),
        slots,
        elapsed,
        bandwidth_bps: payload / elapsed,
        eager_ops: s.eager_ops,
        rdvz_ops: s.rdvz_ops,
        eager_copy_s: s.eager_copy_s,
        eager_fallbacks: s.eager_fallbacks,
        pool_waits: s.pool_waits,
        pool_wait_s: s.pool_wait_s,
        pool_hwm: s.pool_hwm,
        doorbells: s.doorbells,
        ring_batched: s.ring_batched,
        rdvz_handshakes: out.net.rdvz_handshakes,
        wire_bytes: out.net.p2p_bytes,
    }
}

/// Fence epochs per cell in the committed grid.
pub(crate) const EPOCHS: usize = 4;

/// The full grid: size × mode × pool, `epochs` fence epochs per cell.
pub(crate) fn sweep(cluster: &ClusterConfig, epochs: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for bytes in SWEEP_BYTES {
        for mode in Mode::ALL {
            for slots in POOL_SIZES {
                cells.push(run_cell(cluster, mode, bytes, slots, epochs));
            }
        }
    }
    cells
}

/// The grid's invariants: at every size and pool, the policy's own
/// choice is no slower than the worse forced mode (the one outcome a
/// cost-model threshold must never produce), and across the sweep it
/// uses both protocols.
pub(crate) fn failures(cells: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    for bytes in SWEEP_BYTES {
        for slots in POOL_SIZES {
            let by = |m: &str| {
                cells
                    .iter()
                    .find(|c| c.bytes == bytes && c.slots == slots && c.mode == m)
                    .expect("full grid")
            };
            let worst = by("eager").elapsed.max(by("rendezvous").elapsed);
            if by("auto").elapsed > worst + 1e-12 {
                out.push(format!(
                    "auto slower than both forced modes at {bytes} B, {slots} slots"
                ));
            }
        }
    }
    let both = cells.iter().any(|c| c.mode == "auto" && c.eager_ops > 0)
        && cells.iter().any(|c| c.mode == "auto" && c.rdvz_ops > 0);
    if !both {
        out.push("auto mode did not exercise both protocols across the sweep".to_string());
    }
    out
}

/// Print the grid.
pub(crate) fn print_sweep(title: &str, cells: &[Cell]) {
    println!("\n== Transport sweep: eager/rendezvous crossover ({title}) ==");
    println!(
        "{:>9} {:>11} {:>5} {:>10} {:>12} {:>6} {:>6} {:>5} {:>6} {:>6} {:>7}",
        "bytes", "mode", "pool", "elapsed", "bandwidth", "eager", "rdvz", "fall", "waits", "drbl", "batched"
    );
    for c in cells {
        println!(
            "{:>9} {:>11} {:>5} {:>10} {:>10}/s {:>6} {:>6} {:>5} {:>6} {:>6} {:>7}",
            c.bytes,
            c.mode,
            c.slots,
            crate::fmt_secs(c.elapsed),
            fmt_bytes(c.bandwidth_bps),
            c.eager_ops,
            c.rdvz_ops,
            c.eager_fallbacks,
            c.pool_waits,
            c.doorbells,
            c.ring_batched,
        );
    }
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2}MB", b / 1e6)
    } else {
        format!("{:.1}KB", b / 1e3)
    }
}

/// The committed `BENCH_transport.json` (at [`EPOCHS`] epochs).
pub(crate) fn json_doc(cells: &[Cell]) -> String {
    json::document(Layout::Block(2), |o| {
        let mut rows = o.array("cells", Layout::Block(4));
        for c in cells {
            rows.object(Layout::Inline)
                .int("bytes", c.bytes)
                .str("mode", c.mode)
                .int("pool_slots", c.slots)
                .num("elapsed_s", c.elapsed)
                .num("bandwidth_bps", c.bandwidth_bps)
                .int("eager_ops", c.eager_ops)
                .int("rdvz_ops", c.rdvz_ops)
                .num("eager_copy_s", c.eager_copy_s)
                .int("eager_fallbacks", c.eager_fallbacks)
                .int("pool_waits", c.pool_waits)
                .num("pool_wait_s", c.pool_wait_s)
                .int("pool_hwm", c.pool_hwm)
                .int("doorbells", c.doorbells)
                .int("ring_batched", c.ring_batched)
                .int("rdvz_handshakes", c.rdvz_handshakes)
                .int("wire_bytes", c.wire_bytes);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_modes_pin_the_protocol_and_auto_crosses_over() {
        let cells = sweep(&ClusterConfig::paper_n(RANKS), 2);
        assert_eq!(cells.len(), SWEEP_BYTES.len() * 3 * POOL_SIZES.len());
        for c in &cells {
            match c.mode {
                // Forced eager only goes rendezvous when the pool
                // starves — and a pool bigger than the per-epoch burst
                // never starves.
                "eager" => {
                    assert_eq!(c.rdvz_ops, c.eager_fallbacks, "{c:?}");
                    if c.slots >= PUTS_PER_EPOCH {
                        assert_eq!(c.eager_fallbacks, 0, "{c:?}");
                    }
                }
                "rendezvous" => assert_eq!(c.eager_ops, 0, "{c:?}"),
                _ => {}
            }
        }
        // The pool axis is live: the small pool starves under the
        // per-epoch burst on at least one forced-eager row.
        assert!(
            cells
                .iter()
                .any(|c| c.mode == "eager" && c.slots < PUTS_PER_EPOCH && c.eager_fallbacks > 0),
            "small pool never starved — the pool-size axis measures nothing"
        );
        // Auto mode must use both protocols across the size axis.
        let auto: Vec<_> = cells.iter().filter(|c| c.mode == "auto").collect();
        assert!(auto.iter().any(|c| c.eager_ops > 0 && c.rdvz_ops == 0));
        assert!(auto.iter().any(|c| c.rdvz_ops > 0 && c.eager_ops == 0));
        // And at every size, auto is no slower than the worse forced
        // mode — the threshold earns its keep.
        assert_eq!(failures(&cells), Vec::<String>::new());
    }

    #[test]
    fn json_export_is_wellformed() {
        let cells = sweep(&ClusterConfig::paper_n(RANKS), 1);
        let json = json_doc(&cells);
        assert_eq!(json.matches('{').count(), cells.len() + 1);
        assert!(json.contains("\"rdvz_handshakes\""), "{json}");
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }
}
