//! Shared datapath types: descriptors, ports, interrupts, the memory map.

/// The RPU memory map, matching the constants in the paper's firmware
/// (Appendices B and C: `DMEM_BASE = 0x800000`, `IO_EXT_BASE`, packet slots
/// in the upper half of packet memory).
pub mod memmap {
    /// Instruction memory base.
    pub const IMEM_BASE: u32 = 0x0000_0000;
    /// Data memory base (the paper's `DMEM_BASE`).
    pub const DMEM_BASE: u32 = 0x0080_0000;
    /// Shared packet memory base (the paper's `PMEM_BASE`).
    pub const PMEM_BASE: u32 = 0x0100_0000;
    /// Interconnect MMIO window (descriptors, status, debug, timer).
    pub const IO_BASE: u32 = 0x0200_0000;
    /// Accelerator MMIO window (the paper's `IO_EXT_BASE`).
    pub const IO_EXT_BASE: u32 = 0x0300_0000;
    /// Semi-coherent broadcast region (§4.4): writes propagate to all RPUs.
    pub const BCAST_BASE: u32 = 0x0400_0000;
    /// Size of the broadcast region in bytes.
    pub const BCAST_BYTES: u32 = 4096;

    /// Interconnect register offsets from [`IO_BASE`].
    pub mod io {
        /// (r) Non-zero when a received descriptor is pending.
        pub const RECV_READY: u32 = 0x00;
        /// (r) Head descriptor's packed low word (see [`super::super::Desc`]).
        pub const RECV_DESC_LO: u32 = 0x04;
        /// (r) Head descriptor's packet-memory address.
        pub const RECV_DESC_DATA: u32 = 0x08;
        /// (w) Releases the head received descriptor.
        pub const RECV_RELEASE: u32 = 0x0c;
        /// (w) Stages an outgoing descriptor's packed low word.
        pub const SEND_DESC_LO: u32 = 0x10;
        /// (w) Outgoing descriptor's data address; writing commits the send.
        pub const SEND_DESC_DATA: u32 = 0x14;
        /// (r/w) Status register, readable by the host (§3.4 breakpoints).
        pub const STATUS: u32 = 0x18;
        /// (w) Debug channel to host, low word (the paper's `DEBUG_OUT_L`).
        pub const DEBUG_OUT_L: u32 = 0x1c;
        /// (w) Debug channel to host, high word (commits the 64-bit value).
        pub const DEBUG_OUT_H: u32 = 0x20;
        /// (r) Cycle timer, low word (timers in all RPUs are synced, §6.2).
        pub const TIMER_L: u32 = 0x24;
        /// (r) Cycle timer, high word.
        pub const TIMER_H: u32 = 0x28;
        /// (w) Interrupt mask register (the firmware's `set_masks(0x30)`).
        pub const MASKS: u32 = 0x2c;
        /// (r) Debug channel from host, low word.
        pub const HOST_IN_L: u32 = 0x30;
        /// (r) Debug channel from host, high word.
        pub const HOST_IN_H: u32 = 0x34;
        /// (r) Pops the oldest broadcast-delivery notification: the message's
        /// region offset, or `0xffff_ffff` when none is pending (§4.4).
        pub const BCAST_NOTIFY: u32 = 0x38;
        /// (r) Number of free entries in this RPU's broadcast outbox.
        pub const BCAST_FREE: u32 = 0x3c;
        /// (w) One-shot watchdog: raises the timer interrupt after the
        /// written number of cycles (the hang-detection mechanism of §3.4:
        /// "software on the RISC-V can detect the hang using internal timer
        /// interrupt"). Writing 0 cancels it.
        pub const TIMER_CMP: u32 = 0x40;
        /// (w) Host-DRAM address for the next DMA transfer (§4.2's
        /// packetized host-DRAM communication with DRAM tags).
        pub const DMA_HOST_ADDR: u32 = 0x44;
        /// (w) Local packet-memory address for the next DMA transfer.
        pub const DMA_LOCAL_ADDR: u32 = 0x48;
        /// (w) DMA transfer length in bytes.
        pub const DMA_LEN: u32 = 0x4c;
        /// (w) DMA control: 1 = write local→host, 2 = read host→local.
        pub const DMA_CTRL: u32 = 0x50;
        /// (r) DMA status: non-zero while a transfer is in flight.
        pub const DMA_STATUS: u32 = 0x54;
    }
}

/// Interrupt lines into each RPU's core.
pub mod irq {
    /// Broadcast message delivered (maskable per target address, §4.4).
    pub const BCAST: u8 = 0;
    /// Internal timer (the hang-detection example of §3.4).
    pub const TIMER: u8 = 1;
    /// Host DRAM DMA completion.
    pub const DMA: u8 = 2;
    /// Eviction request before partial reconfiguration (Appendix A.8).
    pub const EVICT: u8 = 4;
    /// Host poke for debugging (§3.4).
    pub const POKE: u8 = 5;
}

/// Packet destinations encoded in a descriptor's `port` field. Ports 0 and 1
/// are the physical 100 Gbps interfaces; the case-study firmware sends
/// matched packets to the host with `desc.port = 2` (Appendix B).
pub mod port {
    /// Host virtual Ethernet interface over PCIe.
    pub const HOST: u8 = 2;
    /// Base of loopback destinations: `LOOPBACK_BASE + k` targets RPU `k`
    /// through the loopback module (§4.4).
    pub const LOOPBACK_BASE: u8 = 4;
}

/// Descriptor tag marking a packet the firmware originated itself rather
/// than received through the LB (the tester FPGA's `basic_pkt_gen` firmware,
/// §6.1/Appendix D): no LB slot is held, so none is released on egress.
pub const SELF_TAG: u8 = 0xff;

/// A packet descriptor: the slot-based handle the LB, interconnect, and
/// firmware exchange instead of packet payloads (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Desc {
    /// Slot tag within the owning RPU.
    pub tag: u8,
    /// Frame length in bytes; firmware drops a packet by sending length 0
    /// (Appendix C: `desc->len = 0; pkt_send(desc);`).
    pub len: u32,
    /// Source port on receive; destination port on send.
    pub port: u8,
    /// Packet-memory address of the frame data.
    pub data: u32,
}

impl Desc {
    /// Packs `(len, tag, port)` into the MMIO low word.
    pub(crate) fn pack_lo(&self) -> u32 {
        (self.len & 0xffff) | (u32::from(self.tag) << 16) | (u32::from(self.port) << 24)
    }

    /// Unpacks an MMIO low word into `(len, tag, port)`.
    fn unpack_lo(lo: u32) -> (u32, u8, u8) {
        (lo & 0xffff, (lo >> 16) as u8, (lo >> 24) as u8)
    }

    /// Reassembles a descriptor from the packed low word plus data address.
    pub(crate) fn from_words(lo: u32, data: u32) -> Self {
        let (len, tag, port) = Self::unpack_lo(lo);
        Self {
            tag,
            len,
            port,
            data,
        }
    }
}

/// Simulation-side metadata for a packet occupying a slot (identity and
/// timestamps survive the trip through packet memory so conservation and
/// latency can be measured).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotMeta {
    /// The packet's unique id.
    pub(crate) packet_id: u64,
    /// Cycle the traffic source generated it.
    pub(crate) ts_gen: u64,
    /// Port it entered the system on.
    pub(crate) ingress_port: u8,
    /// Original frame length.
    pub(crate) orig_len: u32,
}

/// A host-DRAM DMA request from an RPU (§4.2: "communication between host
/// DRAM and RPUs is also packetized, using a different slot number, i.e.,
/// DRAM tag").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HostDmaReq {
    /// Byte address in host DRAM.
    pub(crate) host_addr: u32,
    /// Byte address in the RPU's packet memory (absolute, `PMEM_BASE`-based).
    pub(crate) local_addr: u32,
    /// Transfer length in bytes.
    pub(crate) len: u32,
    /// `true` for local→host writes, `false` for host→local reads.
    pub(crate) to_host: bool,
}

/// A broadcast message in flight (§4.4): a word written to the semi-coherent
/// region, delivered to every RPU at the same cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BcastMsg {
    /// Originating RPU.
    pub(crate) from: usize,
    /// Byte offset within the broadcast region.
    pub(crate) offset: u32,
    /// The written word.
    pub(crate) value: u32,
    /// Cycle the originating core issued the write (latency accounting).
    pub(crate) sent_at: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_pack_round_trip() {
        for desc in [
            Desc {
                tag: 0,
                len: 0,
                port: 0,
                data: 0,
            },
            Desc {
                tag: 31,
                len: 9000,
                port: 2,
                data: 0x01ff_ffff,
            },
            Desc {
                tag: 255,
                len: 65535,
                port: port::LOOPBACK_BASE + 7,
                data: 1,
            },
        ] {
            let rt = Desc::from_words(desc.pack_lo(), desc.data);
            assert_eq!(rt, desc);
        }
    }

    #[test]
    fn len_truncates_to_16_bits() {
        let desc = Desc {
            tag: 1,
            len: 0x12_0000,
            port: 0,
            data: 0,
        };
        let (len, _, _) = Desc::unpack_lo(desc.pack_lo());
        assert_eq!(len, 0); // callers must respect the 16 KB slot limit
    }
}
