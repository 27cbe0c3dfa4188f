//! Regenerate the hardware claims C1-C4 (DESIGN.md section 4).

use vpce_bench::{fmt_secs, hwclaims, machine};

fn main() {
    println!("== C1: link signalling modes (SKWP vs conventional, paper: ~4x) ==");
    println!("{:>16} {:>10} {:>12} {:>7}", "mode", "period", "bandwidth", "gain");
    for r in hwclaims::c1_link_modes() {
        println!(
            "{:>16} {:>8.1}ns {:>9.1}MB/s {:>6.2}x",
            r.mode.name(),
            r.period_ns,
            r.bandwidth_mbps,
            r.gain_over_conventional
        );
    }
    let (skwp, conv) = hwclaims::c1_system_level(512);
    println!(
        "system level (MM 512 comm time): SKWP {} vs conventional {} ({:.2}x)",
        fmt_secs(skwp),
        fmt_secs(conv),
        conv / skwp
    );

    println!("\n== C2: V-Bus card vs Fast Ethernet (paper: ~4x latency & bandwidth) ==");
    println!(
        "{:>10} {:>12} {:>12} {:>7} {:>12} {:>12}",
        "bytes", "vbus lat", "eth lat", "ratio", "vbus bw", "eth bw"
    );
    for r in hwclaims::c2_vbus_vs_ethernet(&[64, 1024, 65536, 1 << 20, 1 << 22]) {
        println!(
            "{:>10} {:>12} {:>12} {:>6.2}x {:>9.1}MB/s {:>9.1}MB/s",
            r.bytes,
            fmt_secs(r.vbus.latency_s),
            fmt_secs(r.ethernet.latency_s),
            r.ethernet.latency_s / r.vbus.latency_s,
            r.vbus.bandwidth_mbps,
            r.ethernet.bandwidth_mbps
        );
    }

    println!("\n== C3: virtual-bus broadcast vs software tree ==");
    for nodes in [4usize, 9, 16] {
        println!("  {nodes} nodes:");
        for p in hwclaims::c3_broadcast(nodes, &[1 << 10, 1 << 16, 1 << 20]) {
            println!(
                "    {:>9}B: vbus {:>10} tree {:>10} ({:.2}x)",
                p.bytes,
                fmt_secs(p.vbus_s),
                fmt_secs(p.tree_s),
                p.tree_s / p.vbus_s
            );
        }
    }

    println!("\n== C4: DMA (contiguous) vs PIO (strided) host cost ==");
    println!("{:>10} {:>12} {:>12} {:>8}", "elements", "contiguous", "strided", "ratio");
    for r in hwclaims::c4_dma_vs_pio(&[16, 256, 4096, 65536]) {
        println!(
            "{:>10} {:>12} {:>12} {:>7.1}x",
            r.elems,
            fmt_secs(r.contiguous_host_s),
            fmt_secs(r.strided_host_s),
            r.ratio
        );
    }

    println!(
        "\n== C5: machines x workloads (the declarative zoo, {} nodes) ==",
        machine::NODES
    );
    machine::print(&machine::sweep(machine::MACHINES, machine::NODES));
}
