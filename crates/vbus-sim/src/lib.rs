//! # vbus-sim — the V-Bus / SKWP interconnect model
//!
//! This crate is the hardware substrate of the reproduction of
//! *"A Parallel Programming Environment for a V-Bus based PC-cluster"*
//! (Lim, Paek, Park, Hoeflinger — IEEE CLUSTER 2001).
//!
//! The paper's cluster interconnects 300 MHz Pentium-II PCs through custom
//! FPGA network cards arranged in a mesh. Two hardware techniques define
//! the card:
//!
//! * **Skew-tolerant wave pipelining (SKWP)** — several signal waves are
//!   kept in flight on each link; an automatic skew-sampling circuit
//!   measures the per-line delay differences and re-aligns the waves, so
//!   the signalling period is bounded by residual jitter rather than by
//!   the full flight time plus worst-case skew. The paper reports a
//!   bandwidth gain of "up to four times" over conventional pipelining.
//!   [`link::LinkPhy`] reproduces this at the signal level.
//!
//! * **Virtual Bus (V-Bus)** — on a broadcast request the mesh
//!   dynamically configures a bus spanning all routers. In-flight
//!   point-to-point wormhole messages are *frozen in buffers* while the
//!   bus exists and resume afterwards, so broadcast needs no extra
//!   physical wires and no store-and-forward hops.
//!   [`sim::NetSim::vbus_broadcast`] reproduces this, including the
//!   freeze.
//!
//! Since the physical cards are unavailable (FPGA hardware gate), the
//! crate models the network as a **deterministic link-schedule
//! simulator**: every directed link of the topology carries a
//! `busy_until` virtual time; a wormhole message acquires its whole
//! route (dimension-ordered on the mesh, the tori and the hypercube) at
//! the maximum of those times, holds it for the transfer duration, and
//! releases it.
//! All results are pure functions of the submitted message sequence —
//! there is no dependence on wall-clock scheduling.
//!
//! The crate also provides reference models used by the paper's own
//! comparisons: a conventionally pipelined card (same mesh, ≈¼ the link
//! bandwidth) and a Fast-Ethernet NIC on a shared segment (the baseline
//! the paper says V-Bus beats by ≈4× in both latency and bandwidth).

#![forbid(unsafe_code)]

mod link;
mod stats;
mod topology;

mod sim;

pub use link::{LinkPhy, LinkRate, SignallingMode, ROUTER_DELAY_S};
pub use sim::{BusOutcome, NetConfig, NetSim, Transfer, VBusConfig};
pub use stats::NetStats;
pub use topology::{Mesh, NodeId, Topology};

/// Virtual time in seconds.
///
/// All simulator timestamps are `f64` seconds of *virtual* time; wall
/// clock never enters any computation.
pub type Time = f64;
