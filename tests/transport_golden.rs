//! Threshold-sweep golden: the eager/rendezvous split, counter by
//! counter, pinned to a file.
//!
//! One contiguous PUT per payload size, sizes straddling the paper
//! machine's derived threshold, each run on a fresh two-rank universe.
//! The table pins which protocol carried each size, what it cost the
//! ledger (staging copies vs RTS/CTS handshakes), and what the NIC saw
//! (doorbells, descriptor batching) — so a cost-model or protocol
//! change shows up as a readable diff, not a silent re-balance.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -q -p vpce --test
//! transport_golden`.

use cluster_sim::ClusterConfig;
use mpi2::{TransportPolicy, Universe, ELEM_BYTES};

/// Payload sizes in bytes; 64 B .. 1 MB brackets the few-KB threshold.
const SWEEP_BYTES: [usize; 5] = [64, 512, 4096, 65_536, 1 << 20];

fn sweep() -> String {
    let policy = TransportPolicy::from_config(&ClusterConfig::paper_n(2));
    let mut out = format!(
        "transport sweep on paper_n(2): eager <= {} B, {} slots x {} B, ring depth {}\n",
        policy.eager_max_bytes, policy.slots, policy.slot_bytes, policy.ring_depth
    );
    out.push_str(
        "bytes    proto       eager rdvz copy_s     handshakes hs_bytes wire_msgs wire_bytes doorbells\n",
    );
    for bytes in SWEEP_BYTES {
        let elems = bytes / ELEM_BYTES;
        let uni = Universe::new(ClusterConfig::paper_n(2));
        let rep = uni.run(move |mpi| {
            let w = mpi.win_create(elems.max(1));
            if mpi.rank() == 0 {
                mpi.put_region(&w, 1, 0, elems.max(1)).unwrap();
            }
            mpi.fence_all();
        });
        let s = rep.total_stats();
        let proto = if s.eager_ops > 0 { "eager" } else { "rendezvous" };
        out.push_str(&format!(
            "{:<8} {:<11} {:<5} {:<4} {:<10.6} {:<10} {:<8} {:<9} {:<10} {}\n",
            bytes,
            proto,
            s.eager_ops,
            s.rdvz_ops,
            s.eager_copy_s,
            rep.net.rdvz_handshakes,
            rep.net.rdvz_handshake_bytes,
            rep.net.p2p_messages,
            rep.net.p2p_bytes,
            s.doorbells,
        ));
    }
    out
}

#[test]
fn threshold_sweep_matches_golden() {
    let text = sweep();

    // The sweep must provably exercise *both* protocols: small sizes
    // eager (with a paid staging copy), large sizes rendezvous (with a
    // wire handshake). A threshold regression to "everything eager" or
    // "everything rendezvous" fails here before the golden diff.
    assert!(
        text.contains(" eager "),
        "no eager transfer in the sweep:\n{text}"
    );
    assert!(
        text.contains(" rendezvous "),
        "no rendezvous transfer in the sweep:\n{text}"
    );

    let path = format!(
        "{}/../../tests/golden/transport_sweep.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        text, want,
        "transport sweep drifted from golden; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The same sweep replayed is byte-identical — protocol choice, pool
/// behaviour and NIC counters are all functions of the machine model,
/// never of host scheduling.
#[test]
fn sweep_is_deterministic_across_replays() {
    assert_eq!(sweep(), sweep());
}
