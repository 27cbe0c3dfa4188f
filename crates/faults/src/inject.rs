//! Pure-function fault draws.
//!
//! Every injection decision is a *stateless hash* of
//! `(seed, site, key, salt)` — there is no shared mutable RNG, so the
//! outcome of any draw is independent of thread scheduling and of how
//! many other draws happened first. Determinism then reduces to the
//! callers supplying deterministic keys (packet serials, rank numbers,
//! region indices), which they do.

use std::collections::BTreeSet;

use vpce_testkit::rng::SplitMix64;

use crate::spec::FaultSpec;

/// Injection-site discriminants. Distinct sites decorrelate draws that
/// happen to share a key (e.g. packet serial 5 on the corrupt site vs
/// the drop site).
pub mod site {
    pub const FLIT_CORRUPT: u64 = 0x01;
    pub const LINK_DROP: u64 = 0x02;
    pub const LINK_STALL: u64 = 0x03;
    pub const BUS_FAIL: u64 = 0x04;
    pub const DMA_ERR: u64 = 0x05;
    pub const PIO_ERR: u64 = 0x06;
    pub const NIC_STALL: u64 = 0x07;
    pub const RANK_SLOW: u64 = 0x08;
    pub const RANK_CRASH: u64 = 0x09;
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic fault oracle for one run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    /// Crash-site keys whose draws are masked for this run. Because
    /// every draw is a pure hash, masking one key shifts no other
    /// draw — this is what lets rollback recovery replay a region
    /// with an already-handled crash elided while every transport
    /// fault fires exactly as in the original attempt.
    suppressed_crashes: BTreeSet<u64>,
}

impl FaultInjector {
    pub fn new(spec: FaultSpec) -> Self {
        FaultInjector { spec, suppressed_crashes: BTreeSet::new() }
    }

    /// Mask the crash draws at these `RANK_CRASH` keys (builder form).
    pub fn with_suppressed_crashes(mut self, keys: BTreeSet<u64>) -> Self {
        self.suppressed_crashes = keys;
        self
    }

    /// The crash draw for `key`, honouring the suppression mask. Same
    /// hash as `hits(spec.rank_crash, site::RANK_CRASH, key, 0)` when
    /// the key is unmasked.
    pub fn crash_hits(&self, key: u64) -> bool {
        !self.suppressed_crashes.contains(&key)
            && self.hits(self.spec.rank_crash, site::RANK_CRASH, key, 0)
    }

    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    pub fn enabled(&self) -> bool {
        !self.spec.is_off()
    }

    /// Uniform draw in [0,1) as a pure hash of (seed, site, key, salt).
    pub fn draw(&self, site: u64, key: u64, salt: u64) -> f64 {
        let mut s = self.spec.seed;
        for w in [site, key, salt] {
            s = SplitMix64::new(s ^ w.wrapping_mul(GOLDEN)).next_u64();
        }
        // 53 high-quality bits -> f64 in [0,1).
        (s >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does a fault with probability `rate` fire at this (site, key,
    /// salt)? Zero-rate short-circuits without hashing — inlined, so
    /// an unarmed site costs its caller one compare (the link simulator
    /// asks three per wire leg).
    #[inline]
    pub fn hits(&self, rate: f64, site: u64, key: u64, salt: u64) -> bool {
        rate > 0.0 && self.draw(site, key, salt) < rate
    }

    /// Bounded exponential backoff delay before retransmit `attempt`
    /// (1-based), in virtual seconds. Doubling is capped at 2^6 so a
    /// deep retry budget cannot run the clock away.
    pub fn backoff_delay(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(6);
        self.spec.backoff_base_s * (1u64 << exp) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_site_decorrelated() {
        let inj = FaultInjector::new(FaultSpec { seed: 42, ..FaultSpec::light() });
        let a = inj.draw(site::FLIT_CORRUPT, 5, 0);
        let b = inj.draw(site::FLIT_CORRUPT, 5, 0);
        assert_eq!(a, b);
        let c = inj.draw(site::LINK_DROP, 5, 0);
        assert_ne!(a, c);
        assert!((0.0..1.0).contains(&a) && (0.0..1.0).contains(&c));
    }

    #[test]
    fn hit_rate_tracks_requested_probability() {
        let inj = FaultInjector::new(FaultSpec { seed: 7, ..FaultSpec::off() });
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&k| inj.hits(0.25, site::DMA_ERR, k, 0))
            .count() as f64;
        let freq = hits / n as f64;
        assert!((freq - 0.25).abs() < 0.02, "observed {freq}");
    }

    #[test]
    fn zero_rate_never_hits_and_one_always_does() {
        let inj = FaultInjector::new(FaultSpec::off());
        assert!(!inj.hits(0.0, site::FLIT_CORRUPT, 1, 1));
        assert!(inj.hits(1.0, site::FLIT_CORRUPT, 1, 1));
    }

    #[test]
    fn suppression_masks_only_the_named_key() {
        let spec = FaultSpec { seed: 3, rank_crash: 1.0, ..FaultSpec::off() };
        let plain = FaultInjector::new(spec.clone());
        assert!(plain.crash_hits(7));
        assert!(plain.crash_hits(8));
        let masked = FaultInjector::new(spec).with_suppressed_crashes([7u64].into());
        assert!(!masked.crash_hits(7));
        assert!(masked.crash_hits(8));
        // Non-crash draws are untouched by the mask.
        assert_eq!(
            plain.draw(site::LINK_DROP, 7, 0),
            masked.draw(site::LINK_DROP, 7, 0)
        );
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let inj = FaultInjector::new(FaultSpec::off());
        let base = inj.spec().backoff_base_s;
        assert_eq!(inj.backoff_delay(1), base);
        assert_eq!(inj.backoff_delay(2), base * 2.0);
        assert_eq!(inj.backoff_delay(3), base * 4.0);
        assert_eq!(inj.backoff_delay(7), base * 64.0);
        assert_eq!(inj.backoff_delay(30), base * 64.0);
    }
}
