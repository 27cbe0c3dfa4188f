//! The fault schedule: which faults fire, how often, and how hard.
//!
//! A [`FaultSpec`] is pure data — rates, delays and budgets. Combined
//! with a seed it fully determines every injection decision (see
//! [`crate::FaultInjector`]); no wall clock, no global state. The same
//! spec + seed therefore reproduces the same faults bit-for-bit.

use std::fmt;

use vpce_diag::settings::{self, Refusal, Row};
use vpce_diag::{DiagCode, Diagnostic, Severity};

/// Stable diagnostic codes for `--faults` / `faults=` parse failures,
/// registered in the shared `vpce-diag` registry (VPCE32x block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSpecCode {
    /// The same `key=value` key appeared more than once in one spec.
    DuplicateKey,
    /// A key the grammar does not know.
    UnknownKey,
    /// A value that fails to parse or falls outside its legal range.
    BadValue,
}

impl DiagCode for FaultSpecCode {
    fn as_str(self) -> &'static str {
        match self {
            FaultSpecCode::DuplicateKey => "VPCE320",
            FaultSpecCode::UnknownKey => "VPCE321",
            FaultSpecCode::BadValue => "VPCE322",
        }
    }
    fn severity(self) -> Severity {
        Severity::Error
    }
}

/// A typed `--faults` parse failure: stable code + human detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    pub code: FaultSpecCode,
    pub detail: String,
}

impl FaultParseError {
    fn new(code: FaultSpecCode, detail: impl Into<String>) -> Self {
        FaultParseError { code, detail: detail.into() }
    }

    /// The finding as a `vpce-diag` diagnostic (no source provenance —
    /// fault specs come from the command line or a jobfile record).
    pub fn to_diagnostic(&self) -> Diagnostic<FaultSpecCode> {
        let mut d = Diagnostic::bare(self.code);
        d.detail = self.detail.clone();
        d
    }
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code.as_str(), self.detail)
    }
}

impl std::error::Error for FaultParseError {}

/// Probabilities are per *event* (per packet attempt, per NIC chunk,
/// per region entry), not per second: the simulation is virtual-time
/// and event-driven, so event counts are the deterministic unit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// PRNG seed for all injection decisions.
    pub seed: u64,
    /// P(per-packet-attempt) the CRC check fails on arrival.
    pub flit_corrupt: f64,
    /// P(per-packet-attempt) the packet vanishes (ack timeout).
    pub link_drop: f64,
    /// P(per-packet-attempt) the link stalls before forwarding.
    pub link_stall: f64,
    /// Virtual seconds a link stall holds the packet.
    pub stall_s: f64,
    /// P(per-acquisition-attempt) V-Bus construction fails.
    pub bus_fail: f64,
    /// Acquisition attempts before degrading to the software tree.
    pub bus_attempts: u32,
    /// P(per-chunk) a DMA descriptor is rejected and must be re-posted.
    pub dma_err: f64,
    /// P(per-element-batch) a PIO copy is corrupted and redone.
    pub pio_err: f64,
    /// P(per-host-op) the shared driver queue stalls.
    pub nic_stall: f64,
    /// Virtual seconds a NIC queue stall costs.
    pub nic_stall_s: f64,
    /// P(per-region-entry, per-rank) compute runs slowed this region.
    pub rank_slow: f64,
    /// Multiplier applied to slowed compute time.
    pub slow_factor: f64,
    /// P(per-region-entry, per-rank) the rank crashes outright.
    pub rank_crash: f64,
    /// Retransmit / re-post budget per packet or descriptor.
    pub max_retries: u32,
    /// Base of the bounded exponential backoff (virtual seconds).
    pub backoff_base_s: f64,
}

impl FaultSpec {
    /// The all-zeroes schedule: injection completely disabled.
    pub fn off() -> Self {
        FaultSpec {
            seed: 0,
            flit_corrupt: 0.0,
            link_drop: 0.0,
            link_stall: 0.0,
            stall_s: 20.0e-6,
            bus_fail: 0.0,
            bus_attempts: 3,
            dma_err: 0.0,
            pio_err: 0.0,
            nic_stall: 0.0,
            nic_stall_s: 30.0e-6,
            rank_slow: 0.0,
            slow_factor: 2.0,
            rank_crash: 0.0,
            max_retries: 8,
            backoff_base_s: 2.0e-6,
        }
    }

    /// Gentle transport-only noise: everything retries successfully
    /// with overwhelming probability, so runs always survive.
    pub fn light() -> Self {
        FaultSpec {
            flit_corrupt: 0.02,
            link_drop: 0.01,
            link_stall: 0.02,
            bus_fail: 0.05,
            dma_err: 0.02,
            pio_err: 0.01,
            nic_stall: 0.02,
            rank_slow: 0.05,
            ..FaultSpec::off()
        }
    }

    /// Aggressive transport faults — still survivable (rates well
    /// below what an 8-deep retry budget can absorb), but every
    /// recovery path gets exercised, including bus degradation.
    pub fn heavy() -> Self {
        FaultSpec {
            flit_corrupt: 0.15,
            link_drop: 0.10,
            link_stall: 0.10,
            bus_fail: 0.60,
            dma_err: 0.10,
            pio_err: 0.08,
            nic_stall: 0.10,
            rank_slow: 0.20,
            ..FaultSpec::off()
        }
    }

    /// Unsurvivable: ranks crash. Runs must end in a typed error.
    pub fn crashy() -> Self {
        FaultSpec { rank_crash: 0.5, ..FaultSpec::light() }
    }

    /// True when no fault can ever fire (rates all zero).
    pub fn is_off(&self) -> bool {
        self.flit_corrupt == 0.0
            && self.link_drop == 0.0
            && self.link_stall == 0.0
            && self.bus_fail == 0.0
            && self.dma_err == 0.0
            && self.pio_err == 0.0
            && self.nic_stall == 0.0
            && self.rank_slow == 0.0
            && self.rank_crash == 0.0
    }

    /// True when a link-level fault (flit corruption, drop, stall) can
    /// fire — the only draws keyed on the link simulator's per-pair
    /// attempt counters.
    pub fn link_armed(&self) -> bool {
        [self.flit_corrupt, self.link_drop, self.link_stall].iter().any(|&rate| rate > 0.0)
    }

    /// True when a NIC-level fault (DMA or PIO error, host queue
    /// stall) can fire; otherwise every transfer's host charge is its
    /// fault-free one.
    pub fn nic_armed(&self) -> bool {
        [self.dma_err, self.pio_err, self.nic_stall].iter().any(|&rate| rate > 0.0)
    }

    /// The named starting points a `--faults` spec may open with.
    const PRESETS: [(&'static str, fn() -> FaultSpec); 4] = [
        ("off", FaultSpec::off),
        ("light", FaultSpec::light),
        ("heavy", FaultSpec::heavy),
        ("crashy", FaultSpec::crashy),
    ];

    /// Parse `--faults` syntax: a preset name (`off`, `light`,
    /// `heavy`, `crashy`) optionally followed by comma-separated
    /// `key=value` overrides ([`FAULT_KEYS`]), or overrides alone
    /// (starting from `off`). Example: `light,drop=0.2,retries=10`. A
    /// repeated key is a typed VPCE320 error — silent last-wins would
    /// make two visually different specs produce identical runs — and
    /// a value outside its range (a rate outside `[0, 1]`, a delay that
    /// is negative or not finite) a VPCE322.
    pub fn parse(s: &str) -> Result<FaultSpec, FaultParseError> {
        let mut items = settings::list(s).peekable();
        let preset = items.peek().and_then(|first| {
            let (_, make) = FaultSpec::PRESETS.iter().find(|(name, _)| name == first)?;
            Some(make())
        });
        let mut spec = match preset {
            Some(spec) => {
                items.next();
                spec
            }
            None => FaultSpec::off(),
        };
        settings::apply(FAULT_KEYS, &mut spec, items).map_err(|e| {
            let (code, detail) = match e.refusal {
                Refusal::Repeated => (
                    FaultSpecCode::DuplicateKey,
                    format!("duplicate --faults key '{}': each key may appear once", e.key),
                ),
                Refusal::Unknown => (FaultSpecCode::UnknownKey, e.detail),
                Refusal::NotKeyValue | Refusal::BadValue => (FaultSpecCode::BadValue, e.detail),
            };
            FaultParseError::new(code, detail)
        })?;
        Ok(spec)
    }

    /// The canonical `--faults` string for this spec: `off` when it
    /// equals [`FaultSpec::off`], otherwise comma-separated
    /// `key=value` overrides (only the fields that differ from `off`,
    /// in [`FAULT_KEYS`] order). Parsing the result reproduces the spec
    /// exactly, which is what lets jobfile records and the `vpce-serve`
    /// journal round-trip fault schedules.
    pub fn to_record(&self) -> String {
        // Every job record and work key carries this: the common
        // fault-free spec formats no value.
        if *self == FaultSpec::off() {
            return "off".to_string();
        }
        settings::record(FAULT_KEYS, self, &FaultSpec::off()).join(",")
    }
}

/// Every `--faults` key, once: what it sets, how its value is read
/// and written, and its help line. The order is the canonical
/// record's.
#[rustfmt::skip]
pub const FAULT_KEYS: &[Row<FaultSpec>] = &[
    Row { key: "seed", help: "PRNG seed of every injection decision",
          set: |s, v| settings::number(v).map(|x| s.seed = x), get: |s| s.seed.to_string() },
    Row { key: "corrupt", help: "P(packet attempt fails its CRC)",
          set: |s, v| settings::rate(v).map(|x| s.flit_corrupt = x), get: |s| s.flit_corrupt.to_string() },
    Row { key: "drop", help: "P(packet attempt vanishes)",
          set: |s, v| settings::rate(v).map(|x| s.link_drop = x), get: |s| s.link_drop.to_string() },
    Row { key: "stall", help: "P(link stalls a packet attempt)",
          set: |s, v| settings::rate(v).map(|x| s.link_stall = x), get: |s| s.link_stall.to_string() },
    Row { key: "stall_s", help: "virtual seconds a link stall holds the packet",
          set: |s, v| settings::seconds(v).map(|x| s.stall_s = x), get: |s| s.stall_s.to_string() },
    Row { key: "bus", help: "P(V-Bus construction attempt fails)",
          set: |s, v| settings::rate(v).map(|x| s.bus_fail = x), get: |s| s.bus_fail.to_string() },
    Row { key: "dma", help: "P(DMA descriptor rejected)",
          set: |s, v| settings::rate(v).map(|x| s.dma_err = x), get: |s| s.dma_err.to_string() },
    Row { key: "pio", help: "P(PIO batch corrupted)",
          set: |s, v| settings::rate(v).map(|x| s.pio_err = x), get: |s| s.pio_err.to_string() },
    Row { key: "nicstall", help: "P(driver queue stalls a host op)",
          set: |s, v| settings::rate(v).map(|x| s.nic_stall = x), get: |s| s.nic_stall.to_string() },
    Row { key: "nicstall_s", help: "virtual seconds a NIC queue stall costs",
          set: |s, v| settings::seconds(v).map(|x| s.nic_stall_s = x), get: |s| s.nic_stall_s.to_string() },
    Row { key: "slow", help: "P(rank computes slowed in a region)",
          set: |s, v| settings::rate(v).map(|x| s.rank_slow = x), get: |s| s.rank_slow.to_string() },
    Row { key: "slow_factor", help: "multiplier on slowed compute time (>= 1)",
          set: |s, v| settings::factor(v).map(|x| s.slow_factor = x), get: |s| s.slow_factor.to_string() },
    Row { key: "crash", help: "P(rank crashes entering a region)",
          set: |s, v| settings::rate(v).map(|x| s.rank_crash = x), get: |s| s.rank_crash.to_string() },
    Row { key: "backoff_s", help: "base of the bounded exponential backoff, seconds",
          set: |s, v| settings::seconds(v).map(|x| s.backoff_base_s = x), get: |s| s.backoff_base_s.to_string() },
    Row { key: "bus_attempts", help: "V-Bus acquisition attempts before the software tree (>= 1)",
          set: |s, v| settings::count(v).map(|x| s.bus_attempts = x), get: |s| s.bus_attempts.to_string() },
    Row { key: "retries", help: "retransmit / re-post budget per packet or descriptor",
          set: |s, v| settings::number(v).map(|x| s.max_retries = x), get: |s| s.max_retries.to_string() },
];

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_off_and_presets_are_not() {
        assert!(FaultSpec::off().is_off());
        assert!(!FaultSpec::light().is_off());
        assert!(!FaultSpec::heavy().is_off());
        assert!(!FaultSpec::crashy().is_off());
        assert!(FaultSpec::crashy().rank_crash > 0.0);
    }

    #[test]
    fn link_and_nic_planes_arm_apart() {
        let planes = |s: &FaultSpec| (s.link_armed(), s.nic_armed());
        assert_eq!(planes(&FaultSpec::off()), (false, false));
        assert_eq!(planes(&FaultSpec::light()), (true, true));
        assert_eq!(planes(&FaultSpec::parse("stall=0.1").unwrap()), (true, false));
        assert_eq!(planes(&FaultSpec::parse("dma=0.1").unwrap()), (false, true));
        // A bus or rank fault arms the spec but neither plane.
        let bus = FaultSpec::parse("bus=0.5,slow=0.5").unwrap();
        assert!(!bus.is_off());
        assert_eq!(planes(&bus), (false, false));
    }

    #[test]
    fn parse_preset_with_overrides() {
        let s = FaultSpec::parse("light,drop=0.25,retries=12,seed=7").unwrap();
        assert_eq!(s.link_drop, 0.25);
        assert_eq!(s.max_retries, 12);
        assert_eq!(s.seed, 7);
        assert_eq!(s.flit_corrupt, FaultSpec::light().flit_corrupt);
    }

    #[test]
    fn parse_bare_overrides_start_from_off() {
        let s = FaultSpec::parse("corrupt=0.1").unwrap();
        assert_eq!(s.flit_corrupt, 0.1);
        assert_eq!(s.link_drop, 0.0);
    }

    #[test]
    fn to_record_round_trips() {
        assert_eq!(FaultSpec::off().to_record(), "off");
        for spec in [
            FaultSpec::light(),
            FaultSpec::heavy(),
            FaultSpec::crashy(),
            FaultSpec::parse("heavy,seed=42,retries=3,stall_s=1e-5").unwrap(),
        ] {
            let rec = spec.to_record();
            assert_eq!(FaultSpec::parse(&rec).unwrap(), spec, "{rec}");
            assert!(!rec.contains(' '), "record must be one token: {rec}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("drop=2.0").is_err());
        assert!(FaultSpec::parse("nope=1").is_err());
        assert!(FaultSpec::parse("drop").is_err());
        assert!(FaultSpec::parse("corrupt=0.1,light").is_err());
    }

    #[test]
    fn parse_errors_carry_stable_codes() {
        assert_eq!(FaultSpec::parse("drop=2.0").unwrap_err().code, FaultSpecCode::BadValue);
        assert_eq!(FaultSpec::parse("nope=1").unwrap_err().code, FaultSpecCode::UnknownKey);
        assert_eq!(FaultSpec::parse("drop").unwrap_err().code, FaultSpecCode::BadValue);
        assert_eq!(FaultSpecCode::DuplicateKey.as_str(), "VPCE320");
        assert_eq!(FaultSpecCode::UnknownKey.as_str(), "VPCE321");
        assert_eq!(FaultSpecCode::BadValue.as_str(), "VPCE322");
        assert_eq!(FaultSpecCode::DuplicateKey.severity(), Severity::Error);
    }

    #[test]
    fn duplicate_keys_are_a_typed_error_not_last_wins() {
        let err = FaultSpec::parse("drop=0.1,drop=0.2").unwrap_err();
        assert_eq!(err.code, FaultSpecCode::DuplicateKey);
        assert!(err.to_string().contains("VPCE320"), "{err}");
        assert!(err.to_string().contains("duplicate --faults key 'drop'"), "{err}");
        // Presets don't count as key tokens, and distinct keys still pass.
        assert!(FaultSpec::parse("light,drop=0.2,retries=3").is_ok());
        // A preset followed by an override of one of its fields is one
        // key occurrence — still legal.
        assert!(FaultSpec::parse("crashy,crash=0.9").is_ok());
        // Duplicates are caught across presets-with-overrides too.
        let err = FaultSpec::parse("light,seed=1,seed=2").unwrap_err();
        assert_eq!(err.code, FaultSpecCode::DuplicateKey);
        let d = err.to_diagnostic();
        assert_eq!(d.code, FaultSpecCode::DuplicateKey);
        assert!(d.detail.contains("seed"));
    }
}
