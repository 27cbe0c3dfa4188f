//! Chrome trace-event JSON exporter.
//!
//! Emits the `{"traceEvents": [...]}` object format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): complete
//! spans (`"ph":"X"`) for events with duration, instants (`"ph":"i"`)
//! for zero-length markers, plus `"M"` metadata records naming the
//! processes and threads.
//!
//! Lane mapping:
//!
//! * `pid 1` = "ranks" — one thread per MPI rank (`tid` = rank).
//! * `pid 2` = "interconnect" — one thread per directed link
//!   (`tid` = link index), plus `tid 9999` for the virtual bus.
//!
//! Timestamps: the simulator's virtual clocks are in seconds; the
//! trace-event format wants microseconds, written by the shared JSON
//! writer (`vpce_diag::json`): records in its compact layout, one per
//! line.

use crate::event::{Event, EventKind, Lane};
use vpce_diag::json::{self, Array, Layout, Object};

const BUS_TID: u64 = 9999;
const RANKS_PID: u64 = 1;
const NET_PID: u64 = 2;

fn lane_pid_tid(lane: Lane) -> (u64, u64) {
    match lane {
        Lane::Rank(r) => (RANKS_PID, r as u64),
        Lane::Link(l) => (NET_PID, l as u64),
        Lane::Bus => (NET_PID, BUS_TID),
    }
}

/// Seconds → microseconds.
fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn write_args(a: &mut Object<'_>, kind: &EventKind) {
    match kind {
        EventKind::Call(c) => {
            a.int("bytes", c.bytes).str("path", c.path.name());
            if let Some(p) = &c.parts {
                a.num("setup_queue_us", us(p.queue_s))
                    .num("setup_dma_us", us(p.dma_s))
                    .num("setup_pio_us", us(p.pio_s))
                    .num("setup_copy_us", us(p.copy_s))
                    .int("chunks", p.chunks);
            }
            if let Some(d) = &c.dom {
                a.int("waited_on_rank", d.rank).num("waited_on_us", us(d.t));
            }
            if let Some((n0, n1)) = c.net {
                a.num("wire_start_us", us(n0)).num("wire_end_us", us(n1));
            }
            if c.recovery_s > 0.0 {
                a.num("recovery_us", us(c.recovery_s));
            }
            a
        }
        EventKind::Phase { .. } => a,
        EventKind::LinkBusy { src, dst, bytes, wait } => {
            a.int("src", src).int("dst", dst).int("bytes", bytes).num("blocked_us", us(*wait))
        }
        EventKind::BusBroadcast { root, bytes, setup } => {
            a.int("root", root).int("bytes", bytes).num("setup_us", us(*setup))
        }
        EventKind::BusFreeze { links, pushback } => {
            a.int("frozen_links", links).num("pushback_us", us(*pushback))
        }
        EventKind::EpochClose { ops } => a.int("completed_ops", ops),
        EventKind::Retransmit { src, dst, attempt, bytes } => {
            a.int("src", src).int("dst", dst).int("attempt", attempt).int("bytes", bytes)
        }
        EventKind::BackoffWait { src, dst, delay } => {
            a.int("src", src).int("dst", dst).num("delay_us", us(*delay))
        }
        EventKind::BusDegraded { root, attempts } => a.int("root", root).int("attempts", attempts),
        EventKind::NicRetry { rank, what, attempts } => {
            a.int("rank", rank).str("what", what).int("attempts", attempts)
        }
        EventKind::EagerCopy { rank, bytes, slot } => {
            a.int("rank", rank).int("bytes", bytes).int("slot", slot)
        }
        EventKind::RendezvousHandshake { origin, target, bytes } => {
            a.int("origin", origin).int("target", target).int("bytes", bytes)
        }
        EventKind::PoolWait { rank } => a.int("rank", rank),
        EventKind::Doorbell { rank, descs } => a.int("rank", rank).int("descs", descs),
        EventKind::Submit { job } | EventKind::Preempt { job } => a.str("job", job),
        EventKind::Checkpoint { job, boundary } => a.str("job", job).int("boundary", boundary),
        EventKind::Recover { records } => a.int("records", records),
        EventKind::RecoveryCheckpoint { region, bytes, buddies } => {
            a.int("region", region).int("bytes", bytes).int("buddies", buddies)
        }
        EventKind::Rollback { region, ranks } => a.int("region", region).int("ranks", ranks),
        EventKind::Respawn { rank, from, to } => {
            a.int("rank", rank).int("from", from).int("to", to)
        }
        EventKind::Replay { regions } => a.int("regions", regions),
    };
}

/// Append an `"M"` metadata record naming a process (`tid: None`) or
/// thread.
fn write_meta(records: &mut Array<'_>, pid: u64, tid: Option<u64>, key: &str, name: &str) {
    let mut m = records.object(Layout::Compact);
    m.str("ph", "M").int("pid", pid);
    if let Some(tid) = tid {
        m.int("tid", tid);
    }
    m.str("name", key);
    m.object("args", Layout::Compact).str("name", name);
}

/// Serialize `events` (already in deterministic `(lane, seq)` order —
/// see `Tracer::events`) plus lane labels into a Chrome trace-event
/// JSON document.
pub(crate) fn to_chrome_json(events: &[Event], lanes: &[(Lane, String)]) -> String {
    json::document(Layout::Compact, |doc| {
        let mut records = doc.array("traceEvents", Layout::Block(0));
        write_meta(&mut records, RANKS_PID, None, "process_name", "ranks");
        write_meta(&mut records, NET_PID, None, "process_name", "interconnect");
        for (lane, label) in lanes {
            let (pid, tid) = lane_pid_tid(*lane);
            write_meta(&mut records, pid, Some(tid), "thread_name", label);
        }
        for ev in events {
            let (pid, tid) = lane_pid_tid(ev.lane);
            let span = ev.t1 > ev.t0;
            let mut rec = records.object(Layout::Compact);
            rec.str("ph", if span { "X" } else { "i" })
                .int("pid", pid)
                .int("tid", tid)
                .num("ts", us(ev.t0));
            if span {
                rec.num("dur", us(ev.dur()));
            } else {
                rec.str("s", "t");
            }
            rec.str("name", &ev.kind.name()).str("cat", ev.kind.category());
            write_args(&mut rec.object("args", Layout::Compact), &ev.kind);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CallInfo, CallOp};

    fn ev(lane: Lane, t0: f64, t1: f64, kind: EventKind) -> Event {
        Event {
            lane,
            seq: 0,
            t0,
            t1,
            kind,
        }
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        // Lane labels and string args go through the shared escaper.
        let submit = ev(
            Lane::Bus,
            1.0,
            1.0,
            EventKind::Submit {
                job: "\u{1}".into(),
            },
        );
        let json = to_chrome_json(&[submit], &[(Lane::Rank(0), "a\"b\\c\nd".into())]);
        assert!(json.contains("\"args\":{\"name\":\"a\\\"b\\\\c\\nd\"}"), "{json}");
        assert!(json.contains("\"args\":{\"job\":\"\\u0001\"}"), "{json}");
    }

    #[test]
    fn microseconds_never_use_exponents() {
        // 1.5 ns in seconds — small enough that naive formatting of the
        // seconds value would be exponential; in µs it is 0.0015.
        let at = ev(
            Lane::Rank(0),
            1.5e-9,
            1.5e-9,
            EventKind::EpochClose { ops: 1 },
        );
        let span = ev(Lane::Rank(0), 0.0, 2.0, EventKind::EpochClose { ops: 1 });
        let json = to_chrome_json(&[at, span], &[]);
        assert!(json.contains("\"ts\":0.0015,"), "{json}");
        assert!(json.contains("\"dur\":2000000,"), "{json}");
    }

    #[test]
    fn span_and_instant_shapes() {
        let span = ev(
            Lane::Rank(0),
            1.0,
            2.0,
            EventKind::Call(CallInfo::new(CallOp::Fence)),
        );
        let instant = ev(Lane::Bus, 3.0, 3.0, EventKind::EpochClose { ops: 4 });
        let json = to_chrome_json(&[span, instant], &[(Lane::Rank(0), "rank 0".into())]);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":1000000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"completed_ops\":4"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn lane_mapping_is_stable() {
        assert_eq!(lane_pid_tid(Lane::Rank(3)), (1, 3));
        assert_eq!(lane_pid_tid(Lane::Link(7)), (2, 7));
        assert_eq!(lane_pid_tid(Lane::Bus), (2, 9999));
    }
}
