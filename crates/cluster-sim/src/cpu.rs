//! CPU cost model: converts operation counts into virtual seconds.
//!
//! The model is a classic fixed-cost-per-operation table in the style of
//! compile-time performance predictors (the paper cites Cascaval's
//! compile-time performance prediction work as the guide for
//! granularity selection). It deliberately ignores caches and
//! superscalar effects: Table 1/2 shapes depend on the compute/
//! communication ratio, not on micro-architectural detail.

/// Cost table and clock for one CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Core clock, Hz.
    pub clock_hz: f64,
    /// Cycles per double-precision add/subtract.
    pub cyc_fadd: f64,
    /// Cycles per double-precision multiply.
    pub cyc_fmul: f64,
    /// Cycles per double-precision divide.
    pub cyc_fdiv: f64,
    /// Cycles per transcendental call (sin/cos/sqrt/exp).
    pub cyc_transcendental: f64,
    /// Cycles per memory load (blended cache model).
    pub cyc_load: f64,
    /// Cycles per memory store.
    pub cyc_store: f64,
    /// Cycles per integer/index ALU operation.
    pub cyc_int: f64,
    /// Cycles of loop bookkeeping per iteration (increment, compare,
    /// branch).
    pub cyc_loop: f64,
    /// Sustained memory-copy bandwidth for local `memcpy`, bytes/s
    /// (used for loopback transfers and driver-buffer staging).
    pub memcpy_bps: f64,
}

impl CpuModel {
    /// The paper's 300 MHz Pentium II.
    ///
    /// Latencies follow Intel's P6 optimization tables (blended with
    /// typical cache behaviour for the era): ~3-cycle FP add, ~5-cycle
    /// FP multiply, ~32-cycle divide, multi-ten-cycle transcendentals,
    /// and ≈180 MB/s sustained memcpy on 66 MHz SDRAM.
    pub fn pentium_ii_300() -> Self {
        CpuModel {
            clock_hz: 300e6,
            cyc_fadd: 3.0,
            cyc_fmul: 5.0,
            cyc_fdiv: 32.0,
            cyc_transcendental: 60.0,
            cyc_load: 2.5,
            cyc_store: 2.5,
            cyc_int: 1.0,
            cyc_loop: 2.0,
            memcpy_bps: 180e6,
        }
    }

    /// Seconds consumed by the given operation counts.
    pub fn time(&self, ops: &OpCounts) -> f64 {
        self.cycles(ops) / self.clock_hz
    }

    /// Cycles consumed by the given operation counts.
    pub fn cycles(&self, ops: &OpCounts) -> f64 {
        ops.fadd as f64 * self.cyc_fadd
            + ops.fmul as f64 * self.cyc_fmul
            + ops.fdiv as f64 * self.cyc_fdiv
            + ops.transcendental as f64 * self.cyc_transcendental
            + ops.loads as f64 * self.cyc_load
            + ops.stores as f64 * self.cyc_store
            + ops.int_ops as f64 * self.cyc_int
            + ops.loop_iters as f64 * self.cyc_loop
    }

}

/// Dynamic operation counts of a program region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub fadd: u64,
    pub fmul: u64,
    pub fdiv: u64,
    pub transcendental: u64,
    pub loads: u64,
    pub stores: u64,
    pub int_ops: u64,
    pub loop_iters: u64,
}

impl OpCounts {
    /// Element-wise sum of two count sets.
    pub fn add(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            fadd: self.fadd + other.fadd,
            fmul: self.fmul + other.fmul,
            fdiv: self.fdiv + other.fdiv,
            transcendental: self.transcendental + other.transcendental,
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
            int_ops: self.int_ops + other.int_ops,
            loop_iters: self.loop_iters + other.loop_iters,
        }
    }

    /// All counts multiplied by `k` (a loop executing its body `k`
    /// times).
    pub fn scaled(&self, k: u64) -> OpCounts {
        OpCounts {
            fadd: self.fadd * k,
            fmul: self.fmul * k,
            fdiv: self.fdiv * k,
            transcendental: self.transcendental * k,
            loads: self.loads * k,
            stores: self.stores * k,
            int_ops: self.int_ops * k,
            loop_iters: self.loop_iters * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts for `n` fused multiply-add loop iterations (the MM inner
    /// loop): two loads, a multiply, an add, a store, loop overhead.
    fn madd_loop(n: u64) -> OpCounts {
        OpCounts {
            fadd: n,
            fmul: n,
            loads: 2 * n,
            stores: n,
            loop_iters: n,
            ..OpCounts::default()
        }
    }

    #[test]
    fn pii_sustained_flops_is_tens_of_mflops() {
        // One fused multiply-add iteration is two flops; a 300 MHz
        // P-II lands in the tens of Mflop/s on compiled Fortran.
        let cpu = CpuModel::pentium_ii_300();
        let f = 2.0 / cpu.time(&madd_loop(1));
        assert!(
            (20e6..80e6).contains(&f),
            "a 300MHz P-II should sustain tens of Mflop/s, got {f}"
        );
    }

    #[test]
    fn time_is_cycles_over_clock() {
        let cpu = CpuModel::pentium_ii_300();
        let ops = madd_loop(1000);
        assert!((cpu.time(&ops) - cpu.cycles(&ops) / 300e6).abs() < 1e-18);
    }

    #[test]
    fn scaled_and_add_compose() {
        let a = madd_loop(3);
        assert_eq!(a.scaled(4), madd_loop(12));
        assert_eq!(a.add(&madd_loop(5)), madd_loop(8));
    }

    #[test]
    fn mm_1024_sequential_time_is_tens_of_seconds() {
        // 1024^3 multiply-adds on the paper's node: the sequential MM
        // run Table 1 normalises against. Should land in O(10-100 s).
        let cpu = CpuModel::pentium_ii_300();
        let n = 1024u64;
        let t = cpu.time(&madd_loop(n * n * n));
        assert!((10.0..200.0).contains(&t), "t={t}");
    }
}
