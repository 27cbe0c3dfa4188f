//! Two-sided MPI-1 primitives: `MPI_SEND` / `MPI_RECV`.
//!
//! The paper's library "includes all the original functions specified
//! in MPI-1" (§2.2); the compiler backend itself only emits one-sided
//! operations (their whole point is that they "take place under the
//! control of only a single processor"), but the two-sided layer is
//! part of the programming environment and the collectives build on
//! its machinery.
//!
//! Sends are eager: the sender deposits the message (with its
//! virtual-time readiness stamp) in a mailbox and proceeds; the
//! receiver blocks until a matching message exists, then schedules the
//! wire transfer. Matching is by exact `(source, tag)`;
//! `MPI_ANY_SOURCE` is not modeled.

use cluster_sim::TransferKind;
use vpce_faults::VpceError;
use vpce_trace::{CallInfo, CallOp, Dominator, EventKind, Lane};

use crate::blocking::Message;
use crate::universe::{transfer_info, Mpi};
use crate::Elem;

impl Mpi {
    /// `MPI_SEND` (eager): transmit `data` to `dst` with `tag`. The
    /// sender pays the host-side cost and continues; the wire transfer
    /// is scheduled when the receiver posts the matching `recv`.
    pub fn send(&mut self, dst: usize, tag: i32, data: Vec<Elem>) -> Result<(), VpceError> {
        self.check_rank("send destination", dst)?;
        let bytes = data.len() * crate::ELEM_BYTES;
        let t0 = self.now();
        let kind = TransferKind::Contiguous { bytes };
        let b = self.host_breakdown_checked(kind, None)?;
        *self.clock_mut() += b.total();
        self.stats_mut().comm_host += b.total();
        self.stats_mut().bytes_sent += bytes as u64;
        let ready = self.now();
        let rank = self.rank();
        if self.tracer().is_enabled() {
            let info = transfer_info(CallOp::Send, kind, &b);
            self.tracer()
                .push(Lane::Rank(rank), t0, ready, EventKind::Call(info));
        }
        self.shared().blocking.post(rank, dst, tag, Message { data, ready });
        Ok(())
    }

    /// `MPI_SENDRECV`: the classic deadlock-free exchange — post the
    /// send (eager, non-blocking), then receive.
    pub fn sendrecv(
        &mut self,
        dst: usize,
        send_tag: i32,
        data: Vec<Elem>,
        src: usize,
        recv_tag: i32,
    ) -> Vec<Elem> {
        self.block_on(async |m| m.sendrecv_async(dst, send_tag, data, src, recv_tag).await)
    }

    /// [`sendrecv`](Mpi::sendrecv) for a rank task.
    pub async fn sendrecv_async(
        &mut self,
        dst: usize,
        send_tag: i32,
        data: Vec<Elem>,
        src: usize,
        recv_tag: i32,
    ) -> Result<Vec<Elem>, VpceError> {
        self.send(dst, send_tag, data)?;
        self.recv_async(src, recv_tag).await
    }

    /// `MPI_RECV`: block until the matching message from `src` with
    /// `tag` arrives, schedule its wire transfer, and return the
    /// payload.
    ///
    /// Note on determinism: the transfer is booked on its links when
    /// the receive matches — now, in host order — not by a fence. A
    /// program in which two ranks receive (or [`Mpi::put_now`] /
    /// [`Mpi::accumulate_now`]) over shared links therefore has
    /// host-order-dependent *clocks*; payloads and every typed verdict
    /// do not depend on it. Compiled programs do neither: their
    /// transfers are buffered one-sided operations, booked by the
    /// closing fence in `(issue time, origin, issue order)` order.
    pub fn recv(&mut self, src: usize, tag: i32) -> Vec<Elem> {
        self.block_on(async |m| m.recv_async(src, tag).await)
    }

    /// [`recv`](Mpi::recv) for a rank task.
    pub async fn recv_async(&mut self, src: usize, tag: i32) -> Result<Vec<Elem>, VpceError> {
        self.check_rank("recv source", src)?;
        let entry = self.now();
        let rank = self.rank();
        let msg = self.shared().blocking.take(src, rank, tag).await?;
        let bytes = msg.data.len() * crate::ELEM_BYTES;
        let wire = {
            let shared = std::sync::Arc::clone(self.shared());
            let mut net = shared.net.lock();
            net.try_p2p(src, rank, bytes, msg.ready.max(entry))?
        };
        let post = self.shared().cfg.node.nic.post_s;
        let exit = wire.end.max(entry) + post;
        self.stats_mut().comm_wait += exit - entry;
        *self.clock_mut() = exit;
        if self.tracer().is_enabled() {
            let mut info = CallInfo::new(CallOp::Recv);
            info.bytes = bytes as u64;
            info.dom = Some(Dominator {
                rank: src,
                t: msg.ready,
            });
            info.net = Some((wire.start, wire.end));
            info.recovery_s = wire.recovery;
            self.tracer()
                .push(Lane::Rank(rank), entry, exit, EventKind::Call(info));
        }
        Ok(msg.data)
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;
    use cluster_sim::ClusterConfig;
    use vpce_machine::MachineSpec;

    fn uni(n: usize) -> Universe {
        Universe::new(ClusterConfig::paper_n(n))
    }

    #[test]
    fn send_recv_roundtrip() {
        let out = uni(2).run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 7, vec![1.0, 2.0, 3.0]).unwrap();
                Vec::new()
            } else {
                mpi.recv(0, 7)
            }
        });
        assert_eq!(out.results[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn recv_clock_reflects_transfer_time() {
        let out = uni(2).run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 0, vec![0.0; 1 << 16]).unwrap();
            } else {
                mpi.recv(0, 0);
            }
            mpi.now()
        });
        // The receiver finishes after the sender (transfer tail).
        assert!(out.results[1] > out.results[0]);
    }

    #[test]
    fn tags_keep_messages_apart() {
        let out = uni(2).run(|mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 1, vec![1.0]).unwrap();
                mpi.send(1, 2, vec![2.0]).unwrap();
                (0.0, 0.0)
            } else {
                // Receive in reverse tag order.
                let b = mpi.recv(0, 2)[0];
                let a = mpi.recv(0, 1)[0];
                (a, b)
            }
        });
        assert_eq!(out.results[1], (1.0, 2.0));
    }

    #[test]
    fn fifo_per_tag() {
        let out = uni(2).run(|mpi| {
            if mpi.rank() == 0 {
                for i in 0..5 {
                    mpi.send(1, 0, vec![i as f64]).unwrap();
                }
                Vec::new()
            } else {
                (0..5).map(|_| mpi.recv(0, 0)[0]).collect()
            }
        });
        assert_eq!(out.results[1], vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn sendrecv_ring_shift_never_deadlocks() {
        // Every rank passes its token one step around the ring — the
        // pattern plain blocking send/recv would deadlock on.
        let out = uni(4).run(|mpi| {
            let right = (mpi.rank() + 1) % mpi.size();
            let left = (mpi.rank() + mpi.size() - 1) % mpi.size();
            mpi.sendrecv(right, 0, vec![mpi.rank() as f64], left, 0)
        });
        for (r, v) in out.results.iter().enumerate() {
            let left = (r + 3) % 4;
            assert_eq!(v, &vec![left as f64]);
        }
    }

    #[test]
    fn ping_pong_latency_vbus_vs_fast_ethernet() {
        // Claim C2 at the MPI level: small-message ping-pong on the
        // V-Bus card is several times faster than on Fast Ethernet.
        let round_trip = |cfg: ClusterConfig| {
            Universe::new(cfg)
                .run(|mpi| {
                    for _ in 0..10 {
                        if mpi.rank() == 0 {
                            mpi.send(1, 0, vec![0.0; 16]).unwrap();
                            mpi.recv(1, 1);
                        } else {
                            mpi.recv(0, 0);
                            mpi.send(0, 1, vec![0.0; 16]).unwrap();
                        }
                    }
                    mpi.now()
                })
                .elapsed()
        };
        let vb = round_trip(ClusterConfig::paper_n(2));
        let fe = round_trip(MachineSpec::fast_ethernet().lower(2).unwrap());
        let ratio = fe / vb;
        assert!(
            (2.0..10.0).contains(&ratio),
            "FE/V-Bus ping-pong ratio ~4 expected, got {ratio}"
        );
    }
}
