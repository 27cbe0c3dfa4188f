//! Collective operations.
//!
//! §2.2: "we optimize the collective communication of a MPI-2 library
//! by making use of the collective facilities of a V-Bus network card"
//! — broadcast is lowered onto the hardware virtual bus when the card
//! has one, and falls back to a binomial software tree otherwise. The
//! other collectives (reduce, gather, scatter) are software trees /
//! fan-ins over the wormhole mesh, as on any card.
//!
//! Every collective runs through the leader rendezvous, so scheduling
//! is deterministic.

use std::sync::Arc;

use cluster_sim::TransferKind;
use vbus_sim::BusOutcome;
use vpce_faults::VpceError;

use crate::rma::AccumulateOp;
use crate::universe::Mpi;
use crate::Elem;
use vpce_trace::CallOp;

/// Dependency edge a collective's leader closure hands back to one
/// rank: `((dominating rank, its time), wire interval, recovery)` of
/// the transfer that determined this rank's exit, when one did. The
/// recovery component is the time that transfer lost to retransmits,
/// backoff or bus degradation (0 fault-free).
type CollDep = Option<((usize, f64), (f64, f64), f64)>;

/// Per-rank delivery record inside the broadcast leader: arrival time,
/// the wire interval of the delivering transfer (None at the root,
/// which already holds the payload), and its recovery time.
type Arrival = (f64, Option<(f64, f64)>, f64);

impl Mpi {
    fn charge_msg_host(&mut self, bytes: usize) {
        let t = self.shared().cfg.node.nic.host_overhead(
            TransferKind::Contiguous { bytes },
            &self.shared().cfg.node.cpu,
        );
        *self.clock_mut() += t;
        self.stats_mut().comm_host += t;
    }

    /// `MPI_BCAST`: `root` passes `Some(payload)`, everyone else
    /// `None`; all ranks return the payload.
    ///
    /// Uses the hardware virtual bus when present (one bus transaction,
    /// freezing p2p traffic), otherwise a binomial tree of p2p
    /// messages.
    pub fn bcast(&mut self, root: usize, data: Option<Vec<Elem>>) -> Vec<Elem> {
        self.block_on(async |m| m.bcast_async(root, data).await)
    }

    /// [`bcast`](Mpi::bcast) for a rank task.
    pub async fn bcast_async(
        &mut self,
        root: usize,
        data: Option<Vec<Elem>>,
    ) -> Result<Vec<Elem>, VpceError> {
        self.check_rank("bcast root", root)?;
        if (self.rank() == root) != data.is_some() {
            return Err(VpceError::InvalidArgument {
                msg: "exactly the root must supply the payload".into(),
            });
        }
        let t_enter = self.now();
        if let Some(bytes) = data.as_ref().map(|d| d.len() * crate::ELEM_BYTES) {
            self.charge_msg_host(bytes);
        }
        let entry = self.now();
        let rank = self.rank();
        let shared = Arc::clone(self.shared());
        let (payload, exit, dep): (Arc<Vec<Elem>>, f64, CollDep) =
            self.shared()
                .blocking
                .run(rank, (self.now(), data), move |ins| {
                    let n = ins.len();
                    let clocks: Vec<f64> = ins.iter().map(|(c, _)| *c).collect();
                    let payload = Arc::new(
                        ins.into_iter()
                            .find_map(|(_, d)| d)
                            .expect("root supplied payload"),
                    );
                    let bytes = payload.len() * crate::ELEM_BYTES;
                    let mut net = shared.net.lock();
                    let post = shared.cfg.node.nic.post_s;
                    // Arrival time + wire interval of the delivering
                    // transfer, per rank (None at the root).
                    let arrive: Vec<Arrival> = if n == 1 {
                        vec![(clocks[root], None, 0.0)]
                    } else {
                        match net.vbus_broadcast_checked(root, bytes, clocks[root]) {
                            BusOutcome::Granted(t) => (0..n)
                                .map(|r| {
                                    let net_iv = (r != root).then_some((t.start, t.end));
                                    (t.end, net_iv, t.recovery)
                                })
                                .collect(),
                            outcome => {
                                // No hardware bus — or its construction
                                // degraded under the fault schedule: fall
                                // back to a binomial tree rooted at
                                // `root`, starting at the post-
                                // arbitration clock when degraded.
                                let (t0, bus_rec) = match outcome {
                                    BusOutcome::Degraded { ready, .. } => {
                                        (ready, ready - clocks[root])
                                    }
                                    _ => (clocks[root], 0.0),
                                };
                                let mut have: Vec<Option<Arrival>> = vec![None; n];
                                have[root] = Some((t0, None, bus_rec));
                                let mut stride = 1;
                                while stride < n {
                                    for rel in 0..n {
                                        let src = (root + rel) % n;
                                        let rel_dst = rel + stride;
                                        if rel_dst < n {
                                            let dst = (root + rel_dst) % n;
                                            if let (Some((t, _, _)), None) = (have[src], have[dst]) {
                                                let x = net.try_p2p(src, dst, bytes, t + post)?;
                                                have[dst] = Some((
                                                    x.end,
                                                    Some((x.start, x.end)),
                                                    bus_rec + x.recovery,
                                                ));
                                            }
                                        }
                                    }
                                    stride *= 2;
                                }
                                have.into_iter().map(|t| t.expect("tree covers all")).collect()
                            }
                        }
                    };
                    Ok((0..n)
                        .map(|r| {
                            let (arr, net_iv, rec) = arrive[r];
                            let exit = arr.max(clocks[r]) + post;
                            let dep = net_iv.map(|iv| ((root, clocks[root]), iv, rec));
                            (Arc::clone(&payload), exit, dep)
                        })
                        .collect())
                })
                .await?;
        self.stats_mut().comm_wait += exit - entry;
        *self.clock_mut() = exit;
        let bytes = payload.len() * crate::ELEM_BYTES;
        self.trace_coll(CallOp::Bcast, t_enter, exit, bytes as u64, dep);
        Ok(Arc::try_unwrap(payload).unwrap_or_else(|p| (*p).clone()))
    }

    /// Emit one collective's blocking span with its dependency edge.
    fn trace_coll(&self, op: CallOp, t0: f64, t1: f64, bytes: u64, dep: CollDep) {
        let (dom, net) = match dep {
            Some((dom, iv, rec)) => (Some(dom), Some((iv, rec))),
            None => (None, None),
        };
        self.trace_blocking(op, t0, t1, bytes, dom, net);
    }

    /// `MPI_REDUCE`: element-wise reduction of every rank's vector to
    /// `root` over a binomial fan-in tree. Only the root receives
    /// `Some(result)`.
    pub fn reduce(
        &mut self,
        root: usize,
        value: Vec<Elem>,
        op: AccumulateOp,
    ) -> Option<Vec<Elem>> {
        self.block_on(async |m| m.reduce_async(root, value, op).await)
    }

    /// [`reduce`](Mpi::reduce) for a rank task.
    pub async fn reduce_async(
        &mut self,
        root: usize,
        value: Vec<Elem>,
        op: AccumulateOp,
    ) -> Result<Option<Vec<Elem>>, VpceError> {
        self.check_rank("reduce root", root)?;
        let t_enter = self.now();
        let bytes = value.len() * crate::ELEM_BYTES;
        self.charge_msg_host(bytes);
        let entry = self.now();
        let rank = self.rank();
        let shared = Arc::clone(self.shared());
        let (result, exit, dep): (Option<Vec<Elem>>, f64, CollDep) =
            self.shared()
                .blocking
                .run(rank, (self.now(), value), move |ins| {
                    let n = ins.len();
                    let clocks: Vec<f64> = ins.iter().map(|(c, _)| *c).collect();
                    let mut vals: Vec<Option<Vec<Elem>>> =
                        ins.into_iter().map(|(_, v)| Some(v)).collect();
                    let mut avail = clocks.clone();
                    // The incoming transfer that pushed each receiver's
                    // availability furthest — its dependency edge.
                    let mut deps: Vec<CollDep> = vec![None; n];
                    let mut net = shared.net.lock();
                    let post = shared.cfg.node.nic.post_s;
                    // Binomial fan-in: in round k, ranks at odd multiples
                    // of 2^k (relative to root) send to their partner
                    // 2^k below.
                    let mut stride = 1;
                    while stride < n {
                        for rel in (stride..n).step_by(2 * stride) {
                            let src = (root + rel) % n;
                            let dst = (root + rel - stride) % n;
                            let src_val = vals[src].take().expect("value live");
                            let bytes = src_val.len() * crate::ELEM_BYTES;
                            let ready = avail[src];
                            let t = net.try_p2p(src, dst, bytes, ready + post)?;
                            if t.end > avail[dst] {
                                deps[dst] = Some(((src, ready), (t.start, t.end), t.recovery));
                            }
                            avail[dst] = avail[dst].max(t.end);
                            let dst_val = vals[dst].as_mut().expect("dest live");
                            if dst_val.len() != src_val.len() {
                                return Err(VpceError::InvalidArgument {
                                    msg: format!(
                                        "reduce length mismatch: rank {src} sent {} elements, rank {dst} holds {}",
                                        src_val.len(),
                                        dst_val.len()
                                    ),
                                });
                            }
                            for (d, s) in dst_val.iter_mut().zip(&src_val) {
                                *d = op.apply(*d, *s);
                            }
                        }
                        stride *= 2;
                    }
                    let result = vals[root].take().expect("root holds result");
                    let root_exit = avail[root] + post;
                    Ok((0..n)
                        .map(|r| {
                            if r == root {
                                (Some(result.clone()), root_exit, deps[r])
                            } else {
                                // Senders proceed once their last send left.
                                (None, avail[r] + post, deps[r])
                            }
                        })
                        .collect())
                })
                .await?;
        self.stats_mut().comm_wait += exit - entry;
        *self.clock_mut() = exit;
        self.trace_coll(CallOp::Reduce, t_enter, exit, bytes as u64, dep);
        Ok(result)
    }

    /// `MPI_ALLREDUCE`: reduce to rank 0 then broadcast the result.
    pub fn allreduce(&mut self, value: Vec<Elem>, op: AccumulateOp) -> Vec<Elem> {
        self.block_on(async |m| m.allreduce_async(value, op).await)
    }

    /// [`allreduce`](Mpi::allreduce) for a rank task.
    pub async fn allreduce_async(
        &mut self,
        value: Vec<Elem>,
        op: AccumulateOp,
    ) -> Result<Vec<Elem>, VpceError> {
        let reduced = self.reduce_async(0, value, op).await?;
        self.bcast_async(0, reduced).await
    }

    /// `MPI_GATHER`: every rank contributes a vector; the root receives
    /// them all, indexed by rank.
    pub fn gather(&mut self, root: usize, value: Vec<Elem>) -> Option<Vec<Vec<Elem>>> {
        self.block_on(async |m| m.gather_async(root, value).await)
    }

    /// [`gather`](Mpi::gather) for a rank task.
    pub async fn gather_async(
        &mut self,
        root: usize,
        value: Vec<Elem>,
    ) -> Result<Option<Vec<Vec<Elem>>>, VpceError> {
        self.check_rank("gather root", root)?;
        let t_enter = self.now();
        let bytes = value.len() * crate::ELEM_BYTES;
        self.charge_msg_host(bytes);
        let entry = self.now();
        let rank = self.rank();
        let shared = Arc::clone(self.shared());
        let (result, exit, dep): (Option<Vec<Vec<Elem>>>, f64, CollDep) =
            self.shared()
                .blocking
                .run(rank, (self.now(), value), move |ins| {
                    let n = ins.len();
                    let clocks: Vec<f64> = ins.iter().map(|(c, _)| *c).collect();
                    let vals: Vec<Vec<Elem>> = ins.into_iter().map(|(_, v)| v).collect();
                    let mut net = shared.net.lock();
                    let post = shared.cfg.node.nic.post_s;
                    let mut root_time = clocks[root];
                    let mut root_dep: CollDep = None;
                    let mut exits = clocks.clone();
                    for (r, v) in vals.iter().enumerate() {
                        if r == root {
                            continue;
                        }
                        let t = net.try_p2p(r, root, v.len() * crate::ELEM_BYTES, clocks[r] + post)?;
                        if t.end > root_time {
                            root_dep = Some(((r, clocks[r]), (t.start, t.end), t.recovery));
                        }
                        root_time = root_time.max(t.end);
                        exits[r] = clocks[r] + post;
                    }
                    exits[root] = root_time + post;
                    Ok((0..n)
                        .map(|r| {
                            if r == root {
                                (Some(vals.clone()), exits[r], root_dep)
                            } else {
                                (None, exits[r], None)
                            }
                        })
                        .collect())
                })
                .await?;
        self.stats_mut().comm_wait += exit - entry;
        *self.clock_mut() = exit;
        self.trace_coll(CallOp::Gather, t_enter, exit, bytes as u64, dep);
        Ok(result)
    }

    /// `MPI_ALLGATHER`: gather to rank 0 then broadcast the
    /// concatenation — every rank ends with all contributions indexed
    /// by rank.
    pub fn allgather(&mut self, value: Vec<Elem>) -> Vec<Vec<Elem>> {
        self.block_on(async |m| m.allgather_async(value).await)
    }

    /// [`allgather`](Mpi::allgather) for a rank task.
    pub async fn allgather_async(&mut self, value: Vec<Elem>) -> Result<Vec<Vec<Elem>>, VpceError> {
        let n = self.size();
        let len = value.len();
        let gathered = self.gather_async(0, value).await?;
        let flat = (self.rank() == 0).then(|| {
            gathered
                .expect("root gathered")
                .into_iter()
                .flatten()
                .collect::<Vec<Elem>>()
        });
        let flat = self.bcast_async(0, flat).await?;
        Ok(flat.chunks(len.max(1)).map(<[Elem]>::to_vec).take(n).collect())
    }

    /// `MPI_SCATTER`: the root supplies one vector per rank; every rank
    /// receives its own.
    pub fn scatter(&mut self, root: usize, chunks: Option<Vec<Vec<Elem>>>) -> Vec<Elem> {
        self.block_on(async |m| m.scatter_async(root, chunks).await)
    }

    /// [`scatter`](Mpi::scatter) for a rank task.
    pub async fn scatter_async(
        &mut self,
        root: usize,
        chunks: Option<Vec<Vec<Elem>>>,
    ) -> Result<Vec<Elem>, VpceError> {
        self.check_rank("scatter root", root)?;
        if (self.rank() == root) != chunks.is_some() {
            return Err(VpceError::InvalidArgument {
                msg: "exactly the root must supply the chunks".into(),
            });
        }
        let t_enter = self.now();
        if let Some(c) = &chunks {
            if c.len() != self.size() {
                return Err(VpceError::InvalidArgument {
                    msg: format!(
                        "one chunk per rank required: got {} chunks for {} ranks",
                        c.len(),
                        self.size()
                    ),
                });
            }
            let total: usize = c.iter().map(|v| v.len() * crate::ELEM_BYTES).sum();
            self.charge_msg_host(total);
        }
        let entry = self.now();
        let rank = self.rank();
        let shared = Arc::clone(self.shared());
        let (mine, exit, dep): (Vec<Elem>, f64, CollDep) =
            self.shared()
                .blocking
                .run(rank, (self.now(), chunks), move |ins| {
                    let n = ins.len();
                    let clocks: Vec<f64> = ins.iter().map(|(c, _)| *c).collect();
                    let chunks = ins
                        .into_iter()
                        .find_map(|(_, c)| c)
                        .expect("root supplied chunks");
                    let mut net = shared.net.lock();
                    let post = shared.cfg.node.nic.post_s;
                    let mut send_t = clocks[root];
                    (0..n)
                        .map(|r| {
                            if r == root {
                                return Ok((chunks[r].clone(), clocks[r] + post, None));
                            }
                            let bytes = chunks[r].len() * crate::ELEM_BYTES;
                            let t = net.try_p2p(root, r, bytes, send_t + post)?;
                            send_t = t.start; // pipelined injection
                            let dep = Some(((root, clocks[root]), (t.start, t.end), t.recovery));
                            Ok((chunks[r].clone(), t.end.max(clocks[r]) + post, dep))
                        })
                        .collect()
                })
                .await?;
        self.stats_mut().comm_wait += exit - entry;
        *self.clock_mut() = exit;
        let bytes = (mine.len() * crate::ELEM_BYTES) as u64;
        self.trace_coll(CallOp::Scatter, t_enter, exit, bytes, dep);
        Ok(mine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;
    use cluster_sim::ClusterConfig;
    use vpce_machine::MachineSpec;

    fn uni(n: usize) -> Universe {
        Universe::new(ClusterConfig::paper_n(n))
    }

    #[test]
    fn bcast_delivers_to_everyone() {
        let out = uni(4).run(|mpi| {
            let data = (mpi.rank() == 2).then(|| vec![3.25, 1.5]);
            mpi.bcast(2, data)
        });
        for r in out.results {
            assert_eq!(r, vec![3.25, 1.5]);
        }
    }

    #[test]
    fn bcast_uses_hardware_bus_when_available() {
        let out = uni(4).run(|mpi| {
            let data = (mpi.rank() == 0).then(|| vec![0.0; 1024]);
            mpi.bcast(0, data);
        });
        assert_eq!(out.net.broadcasts, 1);
        assert_eq!(out.net.p2p_messages, 0);
    }

    #[test]
    fn bcast_falls_back_to_tree_without_vbus() {
        let out = Universe::new(MachineSpec::fast_ethernet().lower(4).unwrap()).run(|mpi| {
            let data = (mpi.rank() == 0).then(|| vec![0.0; 1024]);
            mpi.bcast(0, data);
        });
        assert_eq!(out.net.broadcasts, 0);
        assert_eq!(out.net.p2p_messages, 3, "binomial tree for 4 ranks");
    }

    #[test]
    fn reduce_sums_to_root() {
        for n in [1, 2, 3, 4, 7, 8] {
            let out = uni(n).run(|mpi| {
                let v = vec![mpi.rank() as f64 + 1.0, 1.0];
                mpi.reduce(0, v, AccumulateOp::Sum)
            });
            let expected: f64 = (1..=n).map(|x| x as f64).sum();
            assert_eq!(
                out.results[0],
                Some(vec![expected, n as f64]),
                "n={n}"
            );
            for r in 1..n {
                assert_eq!(out.results[r], None);
            }
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let out = uni(4).run(|mpi| {
            mpi.reduce(3, vec![2.0f64.powi(mpi.rank() as i32)], AccumulateOp::Max)
        });
        assert_eq!(out.results[3], Some(vec![8.0]));
    }

    #[test]
    fn allreduce_gives_everyone_the_result() {
        let out = uni(4).run(|mpi| mpi.allreduce(vec![mpi.rank() as f64], AccumulateOp::Sum));
        for r in out.results {
            assert_eq!(r, vec![6.0]);
        }
    }

    #[test]
    fn gather_indexes_by_rank() {
        let out = uni(3).run(|mpi| mpi.gather(0, vec![mpi.rank() as f64; 2]));
        let got = out.results[0].clone().unwrap();
        assert_eq!(got, vec![vec![0.0; 2], vec![1.0; 2], vec![2.0; 2]]);
        assert!(out.results[1].is_none());
    }

    #[test]
    fn scatter_routes_chunks() {
        let out = uni(3).run(|mpi| {
            let chunks = (mpi.rank() == 0)
                .then(|| (0..3).map(|r| vec![r as f64 * 10.0]).collect::<Vec<_>>());
            mpi.scatter(0, chunks)
        });
        assert_eq!(out.results[0], vec![0.0]);
        assert_eq!(out.results[1], vec![10.0]);
        assert_eq!(out.results[2], vec![20.0]);
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        let out = uni(4).run(|mpi| mpi.allgather(vec![mpi.rank() as f64, 1.0]));
        for r in out.results {
            assert_eq!(r.len(), 4);
            for (i, chunk) in r.iter().enumerate() {
                assert_eq!(chunk, &vec![i as f64, 1.0]);
            }
        }
    }

    #[test]
    fn vbus_bcast_faster_than_software_tree_on_same_mesh() {
        // Claim C3 at the MPI level: disable the bus by clearing the
        // config, same links otherwise.
        let mut no_bus = ClusterConfig::paper_n(8);
        no_bus.net.vbus = None;
        let elapsed = |cfg: ClusterConfig| {
            Universe::new(cfg)
                .run(|mpi| {
                    let data = (mpi.rank() == 0).then(|| vec![0.0; 1 << 16]);
                    mpi.bcast(0, data);
                })
                .elapsed()
        };
        let with_bus = elapsed(ClusterConfig::paper_n(8));
        let without = elapsed(no_bus);
        assert!(
            with_bus < without,
            "vbus {with_bus} should beat tree {without}"
        );
    }

    #[test]
    fn collectives_deterministic() {
        let run = || {
            uni(4).run(|mpi| {
                let x = mpi.allreduce(vec![mpi.rank() as f64], AccumulateOp::Sum);
                let g = mpi.gather(0, x.clone());
                (mpi.now(), g)
            })
        };
        let a = run();
        let b = run();
        for i in 0..4 {
            assert_eq!(a.results[i].0, b.results[i].0);
        }
    }
}
