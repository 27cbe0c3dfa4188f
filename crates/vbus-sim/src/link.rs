//! Signal-level link models.
//!
//! The paper's card pushes an FPGA parallel link past its conventional
//! clock limit with **wave pipelining**: several data waves are in
//! flight on the wires simultaneously. The catch (§2.1) is inter-line
//! *skew* — each signal line of the parallel link has a slightly
//! different propagation delay, and with plain wave pipelining the skew
//! "can be magnified while passing through several wave-pipelined
//! network cards, which can be neither predicted nor handled". The
//! card's **skew-tolerant wave pipelining (SKWP)** adds an automatic
//! skew-sampling circuit that measures the per-line delay differences
//! and re-aligns the waves at every hop, so the signalling period is
//! bounded only by residual jitter plus the receiver settling window.
//!
//! [`LinkPhy`] reproduces this trade-off from first principles: given
//! the per-line skews, it derives the minimum safe signalling period for
//! each [`SignallingMode`] and from that the link bandwidth. With the
//! default parameters (chosen to be plausible for a late-90s FPGA card
//! with a cable between PCs), SKWP comes out ≈4x faster than
//! conventional pipelining — the paper's headline hardware claim.

/// How the parallel link is clocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignallingMode {
    /// Conventional (register) pipelining: only one wave may be on the
    /// wire; the period must cover the full stage flight time plus the
    /// worst-case skew spread plus the settling window.
    Conventional,
    /// Plain wave pipelining: multiple waves in flight; the period must
    /// cover the skew spread (which *accumulates across hops* because it
    /// can be "neither predicted nor handled") plus settling, with a
    /// design margin.
    WavePipelined,
    /// Skew-tolerant wave pipelining: the skew-sampling circuit measures
    /// and cancels the spread at every hop, leaving only jitter plus the
    /// sampling window.
    Skwp,
}

impl SignallingMode {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SignallingMode::Conventional => "conventional",
            SignallingMode::WavePipelined => "wave-pipelined",
            SignallingMode::Skwp => "SKWP",
        }
    }
}

/// Physical description of one parallel link of the network card.
///
/// All times are in picoseconds.
#[derive(Debug, Clone)]
pub struct LinkPhy {
    /// Number of data lines (payload bits per wave).
    pub width_bits: usize,
    /// Propagation delay of each line, ps. The *spread* (max-min) is the
    /// skew the SKWP circuit samples and cancels.
    pub line_delays_ps: Vec<f64>,
    /// Receiver settling/sampling window, ps.
    pub settle_ps: f64,
    /// Residual timing jitter after skew compensation, ps.
    pub jitter_ps: f64,
    /// Width of the skew-sampling circuit's merge window, ps. SKWP pays
    /// this per wave instead of the raw skew spread.
    pub sample_window_ps: f64,
    /// Design margin multiplier applied to the *uncompensated* skew
    /// spread in plain wave pipelining ("tremendous efforts to tune the
    /// skew" — designers must leave slack because end-to-end skew is
    /// unpredictable).
    pub wave_margin: f64,
    /// Number of cascaded cards the uncompensated skew accumulates
    /// across (worst case path length the designer must budget for).
    pub budget_hops: usize,
}

impl LinkPhy {
    /// The default card model: 16 data lines, ≈125 ns stage flight
    /// (FPGA routing + connector + inter-PC cable), 25 ns worst-case
    /// inter-line skew spread, 10 ns settling, 5 ns residual jitter,
    /// 25 ns sampling window.
    ///
    /// These values put conventional pipelining at 160 ns/wave
    /// (12.5 MB/s) and SKWP at 40 ns/wave (50 MB/s) — the paper's
    /// "four times higher bandwidth than conventional pipelining", and
    /// exactly 4x Fast Ethernet's 12.5 MB/s payload rate.
    pub fn paper_card() -> Self {
        let width_bits = 16;
        LinkPhy {
            width_bits,
            // Deterministic skews spanning [100, 125] ns: spread 25 ns.
            line_delays_ps: Self::even_line_delays(width_bits, 100_000.0, 25_000.0),
            settle_ps: 10_000.0,
            jitter_ps: 5_000.0,
            sample_window_ps: 25_000.0,
            wave_margin: 1.5,
            budget_hops: 2,
        }
    }

    /// `width_bits` line delays spaced evenly from `min_ps` across
    /// `spread_ps` (one line sits at `min_ps`).
    pub fn even_line_delays(width_bits: usize, min_ps: f64, spread_ps: f64) -> Vec<f64> {
        if width_bits == 1 {
            return vec![min_ps];
        }
        (0..width_bits)
            .map(|i| min_ps + spread_ps * (i as f64) / (width_bits - 1) as f64)
            .collect()
    }

    /// Worst-case inter-line skew spread, ps.
    pub fn skew_spread_ps(&self) -> f64 {
        let max = self.line_delays_ps.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.line_delays_ps.iter().cloned().fold(f64::MAX, f64::min);
        (max - min).max(0.0)
    }

    /// Longest line flight time, ps (the stage flight that conventional
    /// pipelining must wait out on every wave).
    pub fn stage_flight_ps(&self) -> f64 {
        self.line_delays_ps.iter().cloned().fold(0.0, f64::max)
    }

    /// Minimum safe signalling period for the given mode, ps.
    ///
    /// * conventional: `flight + spread + settle` — the wire must drain
    ///   completely before the next wave launches;
    /// * wave-pipelined: `margin * spread * budget_hops + settle` — waves
    ///   overlap, but the *unpredictable, hop-magnified* skew spread must
    ///   fit between consecutive waves;
    /// * SKWP: `jitter + settle` — the sampling circuit re-aligns every
    ///   hop, so only residual jitter separates waves.
    pub fn period_ps(&self, mode: SignallingMode) -> f64 {
        match mode {
            SignallingMode::Conventional => {
                self.stage_flight_ps() + self.skew_spread_ps() + self.settle_ps
            }
            SignallingMode::WavePipelined => {
                self.wave_margin * self.skew_spread_ps() * self.budget_hops as f64 + self.settle_ps
            }
            SignallingMode::Skwp => self.jitter_ps + self.settle_ps + self.sample_window_ps,
        }
    }

    /// Payload bandwidth in bytes/second for the given mode.
    pub fn bandwidth_bps(&self, mode: SignallingMode) -> f64 {
        let bits_per_wave = self.width_bits as f64;
        let period_s = self.period_ps(mode) * 1e-12;
        bits_per_wave / 8.0 / period_s
    }

    /// Derive the scheduler-level [`LinkRate`] for this phy in a mode.
    ///
    /// The per-hop latency is one stage flight (the header wave must
    /// physically cross the link) plus the router's cut-through decision
    /// time.
    pub fn rate(&self, mode: SignallingMode, router_delay_s: f64) -> LinkRate {
        LinkRate {
            bandwidth_bps: self.bandwidth_bps(mode),
            per_hop_s: self.stage_flight_ps() * 1e-12 + router_delay_s,
        }
    }
}

/// The two numbers the message scheduler needs from a link technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRate {
    /// Payload bandwidth, bytes/second.
    pub bandwidth_bps: f64,
    /// Latency a message header pays per traversed link (flight +
    /// routing decision), seconds.
    pub per_hop_s: f64,
}

/// The paper's wormhole router decision time per hop, seconds.
pub const ROUTER_DELAY_S: f64 = 0.5e-6;

impl LinkRate {
    /// The paper's card: SKWP-mode [`LinkPhy::paper_card`] behind a
    /// [`ROUTER_DELAY_S`] router.
    pub fn vbus_skwp() -> Self {
        LinkPhy::paper_card().rate(SignallingMode::Skwp, ROUTER_DELAY_S)
    }

    /// Fast Ethernet reference: 100 Mbit/s payload (12.5 MB/s) on a
    /// shared segment; "per hop" is the wire+PHY latency only — the
    /// large protocol-stack cost lives in the NIC software model (the
    /// paper attributes Fast Ethernet's 4x-worse latency chiefly to its
    /// kernel-level communication path).
    pub fn fast_ethernet() -> Self {
        LinkRate {
            bandwidth_bps: 12.5e6,
            per_hop_s: 5e-6,
        }
    }

    /// Seconds to push `bytes` through the link once acquired.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth_bps
    }

    /// Seconds for the receiver's CRC verdict to reach the sender: the
    /// ack worm re-crosses the path (`ACK_BYTES` payload, one header
    /// flight per hop). This is the detection latency of a corrupted
    /// packet — the NACK round trip before a retransmit can start.
    pub fn ack_turnaround(&self, hops: usize) -> f64 {
        self.per_hop_s * hops as f64 + self.transfer_time(ACK_BYTES)
    }

    /// Sender-side ack timeout after which a packet is declared lost
    /// (no CRC verdict ever arrives for a dropped packet). A small
    /// multiple of the ack turnaround, as a real link layer would
    /// configure it.
    pub fn drop_timeout(&self, hops: usize) -> f64 {
        4.0 * self.ack_turnaround(hops)
    }
}

/// Payload bytes of the link-level acknowledgement packet: the packet
/// serial being acked plus the CRC verdict.
pub(crate) const ACK_BYTES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_card_skwp_gain_is_about_four() {
        let phy = LinkPhy::paper_card();
        let gain = phy.bandwidth_bps(SignallingMode::Skwp)
            / phy.bandwidth_bps(SignallingMode::Conventional);
        assert!(
            (3.5..=4.5).contains(&gain),
            "SKWP gain should be ~4x (paper §2.1), got {gain}"
        );
    }

    #[test]
    fn paper_card_bandwidths() {
        let phy = LinkPhy::paper_card();
        let skwp = phy.bandwidth_bps(SignallingMode::Skwp);
        let conv = phy.bandwidth_bps(SignallingMode::Conventional);
        // SKWP = 50 MB/s = 4x Fast Ethernet, conventional = 12.5 MB/s.
        assert!((skwp - 50e6).abs() / 50e6 < 0.05, "skwp={skwp}");
        assert!((conv - 12.5e6).abs() / 12.5e6 < 0.1, "conv={conv}");
    }

    #[test]
    fn skwp_beats_plain_wave_pipelining() {
        // Plain wave pipelining helps over conventional, but the
        // hop-magnified unpredictable skew keeps it short of SKWP —
        // the motivation for the sampling circuit.
        let phy = LinkPhy::paper_card();
        let conv = phy.bandwidth_bps(SignallingMode::Conventional);
        let wave = phy.bandwidth_bps(SignallingMode::WavePipelined);
        let skwp = phy.bandwidth_bps(SignallingMode::Skwp);
        assert!(wave > conv, "wave {wave} should beat conventional {conv}");
        assert!(skwp > wave, "skwp {skwp} should beat plain wave {wave}");
    }

    #[test]
    fn more_skew_hurts_wave_but_not_skwp() {
        let mut phy = LinkPhy::paper_card();
        let wave_before = phy.bandwidth_bps(SignallingMode::WavePipelined);
        let skwp_before = phy.bandwidth_bps(SignallingMode::Skwp);
        // Double the spread.
        let min = phy.line_delays_ps.iter().cloned().fold(f64::MAX, f64::min);
        for d in &mut phy.line_delays_ps {
            *d = min + (*d - min) * 2.0;
        }
        let wave_after = phy.bandwidth_bps(SignallingMode::WavePipelined);
        let skwp_after = phy.bandwidth_bps(SignallingMode::Skwp);
        assert!(wave_after < wave_before);
        assert_eq!(skwp_after, skwp_before, "SKWP cancels skew");
    }

    #[test]
    fn zero_spread_makes_conventional_flight_bound() {
        let phy = LinkPhy {
            width_bits: 8,
            line_delays_ps: vec![100_000.0; 8],
            settle_ps: 10_000.0,
            jitter_ps: 5_000.0,
            sample_window_ps: 25_000.0,
            wave_margin: 1.5,
            budget_hops: 2,
        };
        assert_eq!(phy.skew_spread_ps(), 0.0);
        assert_eq!(
            phy.period_ps(SignallingMode::Conventional),
            110_000.0,
            "flight + settle"
        );
    }

    #[test]
    fn fast_ethernet_vs_vbus_bandwidth_ratio() {
        let fe = LinkRate::fast_ethernet();
        let vb = LinkRate::vbus_skwp();
        let ratio = vb.bandwidth_bps / fe.bandwidth_bps;
        assert!(
            (3.5..=4.5).contains(&ratio),
            "V-Bus should be ~4x FE bandwidth (paper §1), got {ratio}"
        );
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let r = LinkRate::vbus_skwp();
        let t1 = r.transfer_time(1 << 20);
        let t2 = r.transfer_time(2 << 20);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ack_protocol_timings_scale_with_path_length() {
        let r = LinkRate::vbus_skwp();
        let one = r.ack_turnaround(1);
        let three = r.ack_turnaround(3);
        assert!((three - one - 2.0 * r.per_hop_s).abs() < 1e-15);
        assert!(one > r.transfer_time(ACK_BYTES));
        // Drop detection is strictly slower than NACK detection: a lost
        // packet costs more to notice than a corrupted one.
        assert!(r.drop_timeout(2) > r.ack_turnaround(2));
    }

    #[test]
    fn mode_names() {
        assert_eq!(SignallingMode::Skwp.name(), "SKWP");
        assert_eq!(SignallingMode::Conventional.name(), "conventional");
        assert_eq!(SignallingMode::WavePipelined.name(), "wave-pipelined");
    }
}
