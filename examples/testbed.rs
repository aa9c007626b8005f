//! The complete Appendix D experiment workflow: two Rosebud FPGAs
//! cross-connected — one running `basic_pkt_gen` on its 16 RPUs as the
//! traffic source, the other as the device under test — plus the host-side
//! tooling: bottleneck diagnostics from the §4.3 counters and a pcap export
//! of captured traffic for offline tools.
//!
//! Run with: `cargo run --release --example testbed`

use rosebud::apps::forwarder::build_forwarding_system;
use rosebud::apps::pktgen::{build_pktgen_system, BackToBack};
use rosebud::net::to_pcap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // "First, the FPGAs need to be programmed with the corresponding image.
    //  One FPGA is the tester FPGA that generates test packets, and one is
    //  the FPGA running benchmarks on the Rosebud framework."
    let tester = build_pktgen_system(16, 512)?;
    let dut = build_forwarding_system(16)?;
    let mut b2b = BackToBack::new(tester, dut);

    println!(
        "tester: 16 RPUs of basic_pkt_gen, LB RECV mask = {:#06x}",
        b2b.tester.enabled_mask()
    );
    println!("DUT   : 16 RPUs of basic_fw (the 16-cycle forwarder)\n");

    // "Now wait for the packets to flow for a minute to get a good average."
    b2b.run(60_000);
    b2b.begin_window();
    b2b.run(150_000);
    let m = b2b.measure();
    println!(
        "tester RX (the Appendix D status table): {:.1} Gbps / {:.1} Mpps of 512 B frames",
        m.gbps, m.mpps
    );
    let line = rosebud::net::effective_line_rate_gbps(200.0, 512);
    println!("line rate at 512 B: {line:.1} Gbps\n");

    // Host-side §4.3 counters on the DUT, with the bottleneck verdict.
    let diag = b2b.dut.diagnostics();
    println!("DUT diagnostics:\n{}", diag.render());

    // Capture a slice of what the DUT emits and export it as pcap, the way
    // the latency experiment captures samples with tcpdump.
    let capture = b2b.capture(32, 50_000);
    let pcap = to_pcap(&capture, b2b.dut.config().clock_hz);
    println!(
        "captured {} frames -> {} bytes of pcap (feed to wireshark/tcpreplay)",
        capture.len(),
        pcap.len()
    );
    Ok(())
}
