//! A forwarder that mirrors packet headers into host DRAM over the DMA
//! manager (§4.2) — the "expose state to the host" path, written the way the
//! protocol/taint analyzer expects every DMA firmware to be written.
//!
//! Per packet, the firmware programs a host-DMA of the frame's first 64
//! bytes into a ring in host DRAM, kicks the engine, and polls `DMA_STATUS`
//! to completion (petting the watchdog while PCIe round-trips) before
//! releasing the descriptor and forwarding the frame. The DMA local address
//! comes from `RECV_DESC_DATA` — packet-influenced data — so it is
//! mask-sanitized back into the packet-memory window before it may reach
//! `DMA_LOCAL_ADDR`; dropping the `and`/`or` pair makes the taint checker
//! deny the image.

use rosebud_core::{LoadPolicy, Rosebud, RosebudConfig, RoundRobinLb, RpuProgram};
use rosebud_riscv::{assemble, Image};

/// Bytes mirrored to host DRAM per packet (one ring entry).
pub(crate) const RING_ENTRY_BYTES: u32 = 64;

/// Size of the host-DRAM header ring in bytes (must be a power of two).
pub(crate) const RING_BYTES: u32 = 0x1_0000;

/// Source of the host-mirroring forwarder. `interval` is the watchdog
/// deadline in cycles; it must cover one full poll + DMA round-trip, so use
/// at least a few times the configured PCIe RTT.
pub fn host_dma_forwarder_asm(interval: u32) -> String {
    format!(
        "
        .equ IO, 0x02000000
            li t0, IO
            li t1, 0x00800000        # descriptor context array in dmem
            li t2, 0x01000000        # pmem base == port XOR mask (bit 24)
            li t5, {interval}        # watchdog deadline, re-armed per poll
            li s0, 0                 # host DRAM ring cursor
            li s1, 0x000fffff        # pmem offset mask (sanitizes DMA source)
            li s2, {wrap}            # host ring wrap mask
        poll:
            sw t5, 0x40(t0)          # TIMER_CMP: pet the one-shot watchdog
            lw a0, 0x00(t0)          # RECV_READY
            beqz a0, poll
            lw a1, 0x04(t0)          # RECV_DESC_LO
            lw a2, 0x08(t0)          # RECV_DESC_DATA (frame address in pmem)
            sw a1, 0(t1)             # copy descriptor into context
            sw a2, 4(t1)
            and a3, a2, s1           # sanitize: clamp to a pmem offset...
            or a3, a3, t2            # ...rebased into the packet window
            sw s0, 0x44(t0)          # DMA_HOST_ADDR: ring cursor
            sw a3, 0x48(t0)          # DMA_LOCAL_ADDR: sanitized frame addr
            li a4, {entry}
            sw a4, 0x4c(t0)          # DMA_LEN: one ring entry
            li a4, 1
            sw a4, 0x50(t0)          # DMA_CTRL: pmem -> host DRAM
        wait:
            sw t5, 0x40(t0)          # keep petting while PCIe round-trips
            lw a4, 0x54(t0)          # DMA_STATUS: completion poll
            bnez a4, wait
            addi s0, s0, {entry}
            and s0, s0, s2           # wrap the host ring
            sw zero, 0x0c(t0)        # RECV_RELEASE
            xor a1, a1, t2           # swap egress port 0 <-> 1
            sw a1, 0x10(t0)          # SEND_DESC_LO (stage)
            sw a2, 0x14(t0)          # SEND_DESC_DATA (commit)
            j poll
        ",
        wrap = RING_BYTES - 1,
        entry = RING_ENTRY_BYTES,
    )
}

/// Assembles the host-mirroring forwarder with a default watchdog interval
/// generous enough for the default PCIe RTT.
///
/// # Panics
///
/// Panics only if the embedded source fails to assemble (a build bug).
pub(crate) fn host_dma_forwarder_image() -> Image {
    assemble(&host_dma_forwarder_asm(65536)).expect("embedded host-dma forwarder must assemble")
}

/// Builds a forwarding system that mirrors every packet's header into the
/// host DRAM ring, vetted under [`LoadPolicy::Deny`] — the analyzer proves
/// the descriptor/DMA protocol and the taint sanitization before boot.
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
pub fn build_host_dma_system(rpus: usize) -> Result<Rosebud, String> {
    let image = host_dma_forwarder_image();
    Rosebud::builder(RosebudConfig::with_rpus(rpus))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .load_policy(LoadPolicy::Deny)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud_core::Harness;
    use rosebud_net::FixedSizeGen;

    #[test]
    fn host_dma_forwarder_mirrors_headers_and_forwards() {
        let sys = build_host_dma_system(4).expect("Deny gate must pass this firmware");
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(128, 2)), 2.0).keep_output(true);
        h.run(60_000);
        assert!(
            h.received() > 4,
            "host-dma forwarder delivered {} packets",
            h.received()
        );
        for pkt in h.collected() {
            assert!(pkt.port < 2);
        }
        // The header ring in host DRAM must hold mirrored frame bytes:
        // FixedSizeGen frames start with a standard Ethernet+IP header, so
        // the ring cannot still be all-zero.
        let ring = &h.sys.host_dram()[..RING_BYTES as usize];
        assert!(
            ring.iter().any(|&b| b != 0),
            "host DRAM ring never received a DMA write"
        );
        // And healthy firmware kept the watchdog quiet throughout.
        for r in 0..4 {
            assert_eq!(h.sys.rpus()[r].watchdog_fires(), 0, "RPU {r}");
        }
    }
}
