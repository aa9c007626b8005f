//! The Reconfigurable Packet-processing Unit (paper §3.1, §4.1).
//!
//! An RPU is a RISC-V core plus custom accelerators inside a partially
//! reconfigurable FPGA block, glued by a tailored memory subsystem:
//!
//! * small single-cycle BRAM instruction/data memories dedicated to the core,
//! * a large URAM packet memory shared between the core (one arbitrated
//!   port, core priority) and the accelerators (one exclusive port),
//! * a DMA engine that copies arriving packets into packet memory and their
//!   headers into the core's low-latency data memory,
//! * an interconnect delivering descriptors and carrying control traffic.
//!
//! Firmware runs either on the full RV32IM instruction-set simulator (the
//! `RiscvFirmware` path — real assembled firmware, cycle-accurate) or as
//! *native firmware*: Rust handlers performing the identical architectural
//! actions while charging an explicit cycle cost (used for the Pigasus case
//! study, whose C firmware the paper characterizes in cycles per packet,
//! Fig. 9).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rosebud_accel::Accelerator;
use rosebud_kernel::{Counters, Cycle, Fifo};
use rosebud_riscv::{
    AccessSize, Bus, BusFault, BusValue, Cpu, DecodeCache, Fetched, Image, Reg, StepResult,
};

use crate::config::{RosebudConfig, DMEM_BYTES, IMEM_BYTES, PMEM_BYTES, SLOT_BYTES};
use crate::sim::SimStats;
use crate::types::memmap::{self, io};
use crate::types::{BcastMsg, Desc, SlotMeta};

/// Wait-states the core pays for each shared-packet-memory access: URAMs are
/// "larger, higher-latency memories" (§4.1) compared to the single-cycle
/// BRAM next to the core. The bus charges it and `verify::machine_spec` hands
/// the same constant to the analyzer, whose WCET bound is sound only while
/// the two agree.
pub(crate) const PMEM_WAIT_CYCLES: u32 = 1;

/// Native firmware: packet-processing logic with explicit cycle accounting.
///
/// Implementations perform the same architectural actions as firmware on the
/// instruction-set simulator — read descriptors, poke accelerator registers,
/// send packets — and charge their software cost with [`RpuIo::charge`].
///
/// A native lane sleeps like an RV32 one: through a charged stall tail,
/// which changes nothing but the cycle counters, and — when the firmware
/// says through [`horizon`](Firmware::horizon) that it is waiting — until
/// something reaches it (a delivery, an interrupt, a host access), its
/// accelerator's own horizon ends or its watchdog fires. The `Rpu` credits
/// the cycles it slept in closed form, so its counters read as if it had
/// been ticked every one of them.
pub trait Firmware: Send {
    /// Short name for diagnostics.
    fn name(&self) -> &str {
        "firmware"
    }

    /// Runs once when the RPU boots (slot setup, mask configuration).
    fn boot(&mut self, io: &mut RpuIo<'_>) {
        let _ = io;
    }

    /// Runs every cycle the core is not stalled on previously charged work.
    fn tick(&mut self, io: &mut RpuIo<'_>);

    /// Delivery of an (unmasked) interrupt line.
    fn interrupt(&mut self, line: u8, io: &mut RpuIo<'_>) {
        let _ = (line, io);
    }

    /// `true` when no packet is mid-processing — the eviction drain check
    /// before partial reconfiguration (Appendix A.8).
    fn is_idle(&self) -> bool {
        true
    }

    /// How many coming ticks change nothing but the cycle they count, given
    /// an empty receive queue, no pending interrupt and no host access —
    /// `u64::MAX` for firmware that waits for a frame or an accelerator
    /// result (the accelerator's own [`Accelerator::horizon`] says when one
    /// can appear). The default, 0, means "tick me every cycle".
    fn horizon(&self) -> u64 {
        0
    }
}

/// The core running inside an RPU.
enum Engine {
    /// Nothing loaded; the RPU discards traffic (it should not receive any —
    /// the LB is told to skip unbooted RPUs).
    Empty,
    /// The RV32IM instruction-set simulator.
    Riscv(Box<Cpu>),
    /// Native firmware with explicit cycle accounting.
    Native(Box<dyn Firmware>),
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Empty => f.write_str("Empty"),
            Engine::Riscv(_) => f.write_str("Riscv"),
            Engine::Native(fw) => write!(f, "Native({})", fw.name()),
        }
    }
}

/// Lifecycle state of the partially reconfigurable region (§4.1, A.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpuState {
    /// Processing packets.
    Running,
    /// LB stopped sending; waiting for in-flight packets to drain.
    Draining,
    /// The PR bitstream is being written; the region is inert.
    Reconfiguring {
        /// Cycle at which the reconfiguration completes.
        until: u64,
    },
    /// Halted (ebreak / fault / never booted).
    Stopped,
}

/// The host-sampled hardware performance counters of one RPU (§4.3): where
/// the region's cycles went, alongside the interface counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Core cycles consumed by firmware (execution + charged stalls).
    pub sw_cycles: u64,
    /// Instructions retired (RV32 `minstret`; ticks for native firmware).
    pub instret: u64,
    /// Cycles the core sat in multi-cycle instruction stalls or charged
    /// native-firmware work — `sw_cycles` minus the issue cycles.
    pub stall_cycles: u64,
    /// Wait-state cycles lost to memory-port contention (the shared URAM
    /// packet-memory port of §4.1). RV32 engines only.
    pub mem_wait_cycles: u64,
    /// Backpressure stalls charged at the interconnect (full egress queue,
    /// full broadcast FIFO).
    pub(crate) backpressure_stalls: u64,
    /// Frames DMA-delivered into the region.
    pub(crate) rx_frames: u64,
    /// Frames the region committed for egress.
    pub(crate) tx_frames: u64,
    /// Frames the region dropped.
    pub(crate) drops: u64,
}

/// What the interconnect keeps per packet-memory slot.
#[derive(Clone, Default)]
struct Slot {
    /// Metadata of the packet bound to the slot, until it is sent.
    meta: Option<SlotMeta>,
    /// The host-side `Vec` the slot's frame arrived in, parked by
    /// [`RpuInner::dma_deliver`] so [`RpuInner::take_tx`] can refill it from
    /// packet memory instead of allocating (zero capacity = nothing parked).
    /// One per slot, so an RPU never parks more than `slots_per_rpu`; no
    /// architectural effect.
    parked: Vec<u8>,
}

/// Memory, queues, and interconnect registers of one RPU — everything both
/// firmware kinds talk to.
pub struct RpuInner {
    id: usize,
    imem: Vec<u8>,
    /// Predecoded mirror of `imem` (host-side fetch shortcut; no
    /// architectural effect).
    icache: DecodeCache,
    dmem: Vec<u8>,
    pmem: Vec<u8>,
    bcast_mirror: Vec<u8>,
    accel: Option<Box<dyn Accelerator>>,
    rx_queue: Fifo<Desc>,
    tx_queue: Fifo<Desc>,
    slot_state: Vec<Slot>,
    status: u32,
    debug_out: Option<u64>,
    debug_out_staged: u32,
    debug_in: u64,
    masks: u32,
    bcast_irq_mask: u32,
    bcast_out: Fifo<BcastMsg>,
    bcast_hw_depth: usize,
    bcast_notify: Fifo<u32>,
    /// Raised-but-undelivered interrupt lines for native firmware.
    native_irqs: u32,
    now: u64,
    /// One-shot watchdog deadline; 0 = disarmed (§3.4 hang detection).
    timer_deadline: u64,
    /// Set by a `TIMER_CMP` write: re-arming (or disarming) the watchdog
    /// acknowledges any pending timer interrupt, `mtimecmp`-style. Consumed
    /// by [`Rpu::tick`], which clears the core's pending line.
    timer_ack: bool,
    /// Staged host-DMA registers and the committed request.
    dma_host_addr: u32,
    dma_local_addr: u32,
    dma_len: u32,
    dma_pending: Option<crate::types::HostDmaReq>,
    dma_busy: bool,
    num_rpus: usize,
    slots: usize,
    counters: Counters,
    send_staged_lo: u32,
    header_slot_bytes: u32,
    /// Set when a poll comes back empty — `RECV_READY` reads 0, or
    /// `DMA_STATUS` reads busy — and cleared by [`Rpu::tick`]'s spin probe:
    /// the cue to watch whether the core is spinning in a loop.
    missed: bool,
    /// Set by any access a parked core could not repeat, cleared by the
    /// spin probe: every store, and every load the fabric can answer
    /// differently without settling the lane first (`TIMER_*`, `BCAST_*`,
    /// an unassigned I/O offset, the broadcast mirror, `IO_EXT`).
    impure: bool,
    /// Core loads and stores that reached the interconnect's I/O window
    /// (host-side instrumentation, [`SimStats::io_accesses`]).
    io_accesses: u64,
}

impl std::fmt::Debug for RpuInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpuInner")
            .field("id", &self.id)
            .field("rx_queue", &self.rx_queue.len())
            .field("tx_queue", &self.tx_queue.len())
            .field("status", &self.status)
            .finish()
    }
}

impl RpuInner {
    fn new(id: usize, cfg: &RosebudConfig) -> Self {
        Self {
            id,
            imem: vec![0; IMEM_BYTES as usize],
            icache: DecodeCache::new(IMEM_BYTES as usize),
            dmem: vec![0; DMEM_BYTES as usize],
            pmem: vec![0; PMEM_BYTES as usize],
            bcast_mirror: vec![0; memmap::BCAST_BYTES as usize],
            accel: None,
            rx_queue: Fifo::new(cfg.slots_per_rpu.max(1)),
            tx_queue: Fifo::new(cfg.slots_per_rpu.max(4)),
            slot_state: vec![Slot::default(); cfg.slots_per_rpu],
            status: 0,
            debug_out: None,
            debug_out_staged: 0,
            debug_in: 0,
            masks: 0,
            bcast_irq_mask: u32::MAX,
            bcast_out: Fifo::new(cfg.bcast_fifo_depth * 4),
            bcast_hw_depth: cfg.bcast_fifo_depth,
            bcast_notify: Fifo::new(64),
            native_irqs: 0,
            now: 0,
            timer_deadline: 0,
            timer_ack: false,
            dma_host_addr: 0,
            dma_local_addr: 0,
            dma_len: 0,
            dma_pending: None,
            dma_busy: false,
            num_rpus: cfg.num_rpus,
            slots: cfg.slots_per_rpu,
            counters: Counters::default(),
            send_staged_lo: 0,
            header_slot_bytes: 128,
            missed: false,
            impure: false,
            io_accesses: 0,
        }
    }

    /// Packet-memory address of `slot`'s buffer. Slots occupy the upper
    /// region of packet memory, like the firmware's `PKTS_START` layout
    /// (Appendix B).
    pub(crate) fn slot_addr(&self, slot: u8) -> u32 {
        let region = self.pmem.len() as u32 - self.slots as u32 * SLOT_BYTES;
        memmap::PMEM_BASE + region + u32::from(slot) * SLOT_BYTES
    }

    /// Data-memory address of `slot`'s low-latency header copy.
    pub(crate) fn header_slot_addr(&self, slot: u8) -> u32 {
        memmap::DMEM_BASE + (self.dmem.len() as u32 / 2) + u32::from(slot) * self.header_slot_bytes
    }

    #[inline(always)]
    fn io_read(&mut self, offset: u32) -> u32 {
        match offset {
            io::RECV_READY => {
                let ready = !self.rx_queue.is_empty();
                self.missed |= !ready;
                u32::from(ready)
            }
            io::RECV_DESC_LO => self.rx_queue.front().map_or(0, Desc::pack_lo),
            io::RECV_DESC_DATA => self.rx_queue.front().map_or(0, |d| d.data),
            io::STATUS => self.status,
            io::HOST_IN_L => self.debug_in as u32,
            io::HOST_IN_H => (self.debug_in >> 32) as u32,
            io::DMA_STATUS => {
                let busy = self.dma_busy || self.dma_pending.is_some();
                self.missed |= busy;
                u32::from(busy)
            }
            // The registers above change only where the lane is settled
            // first; the clock and the broadcast channel do not.
            offset => {
                self.impure = true;
                match offset {
                    io::TIMER_L => self.now as u32,
                    io::TIMER_H => (self.now >> 32) as u32,
                    io::BCAST_NOTIFY => self.bcast_notify.pop().unwrap_or(u32::MAX),
                    io::BCAST_FREE => self.bcast_out.free() as u32,
                    _ => 0,
                }
            }
        }
    }

    #[inline(always)]
    fn io_write(&mut self, offset: u32, value: u32) {
        match offset {
            io::RECV_RELEASE => {
                let _ = self.rx_queue.pop();
            }
            io::SEND_DESC_LO => self.send_staged_lo = value,
            io::SEND_DESC_DATA => {
                let desc = Desc::from_words(self.send_staged_lo, value);
                if self.tx_queue.push(desc).is_err() {
                    // Backpressure: hardware would stall the store; account
                    // it as a stall and drop — firmware written against this
                    // model checks queue space via counters.
                    self.counters.count_stall(1);
                    self.counters.count_drop();
                }
            }
            io::STATUS => self.status = value,
            io::DEBUG_OUT_L => self.debug_out_staged = value,
            io::DEBUG_OUT_H => {
                self.debug_out = Some(u64::from(value) << 32 | u64::from(self.debug_out_staged));
            }
            io::MASKS => self.masks = value,
            io::TIMER_CMP => {
                self.timer_deadline = if value == 0 {
                    0
                } else {
                    self.now + u64::from(value)
                };
                // Re-arming acknowledges a pending timer interrupt.
                self.timer_ack = true;
            }
            io::DMA_HOST_ADDR => self.dma_host_addr = value,
            io::DMA_LOCAL_ADDR => self.dma_local_addr = value,
            io::DMA_LEN => self.dma_len = value,
            io::DMA_CTRL if (value == 1 || value == 2) => {
                self.dma_pending = Some(crate::types::HostDmaReq {
                    host_addr: self.dma_host_addr,
                    local_addr: self.dma_local_addr,
                    len: self.dma_len,
                    to_host: value == 1,
                });
                self.dma_busy = true;
            }
            _ => {}
        }
    }

    /// Writes a word into the broadcast outbox, returning the cycles the
    /// writing core blocks. "A write to the broadcast memory region will be
    /// blocked until there is room in the FIFO" (§6.3): the 18-entry FIFO
    /// (16 + 2 PR border registers) drains one entry per round-robin grant,
    /// i.e. every `num_rpus` cycles, so each entry beyond the hardware depth
    /// costs the writer one full grant period.
    fn bcast_write(&mut self, offset: u32, value: u32) -> u32 {
        let msg = BcastMsg {
            from: self.id,
            offset,
            value,
            sent_at: self.now,
        };
        let word = offset as usize & !3;
        self.bcast_mirror[word..word + 4].copy_from_slice(&value.to_le_bytes());
        if self.bcast_out.push(msg).is_err() {
            // The backing queue is sized 4× the hardware depth; hitting its
            // end means the writer mis-modelled its stalls. Account a drop.
            self.counters.count_drop();
            return self.num_rpus as u32;
        }
        let over = self.bcast_out.len().saturating_sub(self.bcast_hw_depth);
        let wait = (over as u32) * self.num_rpus as u32;
        if wait > 0 {
            self.counters.count_stall(u64::from(wait));
        }
        wait
    }

    /// Delivery of a broadcast message (all RPUs simultaneously, §4.4).
    pub(crate) fn deliver_bcast(&mut self, msg: &BcastMsg) -> bool {
        let word = msg.offset as usize & !3;
        if word + 4 > self.bcast_mirror.len() {
            return false;
        }
        self.bcast_mirror[word..word + 4].copy_from_slice(&msg.value.to_le_bytes());
        let _ = self.bcast_notify.push(msg.offset);
        // Interrupt only if the target word is unmasked.
        let bit = (msg.offset >> 2) & 31;
        self.bcast_irq_mask & (1 << bit) != 0
    }

    pub(crate) fn pop_bcast(&mut self) -> Option<BcastMsg> {
        self.bcast_out.pop()
    }

    /// What the core has left for the fabric to collect: `(a committed send
    /// is queued, a host-DMA request is posted, a broadcast is queued)` —
    /// stages 6, 10 and 11.
    #[inline]
    pub(crate) fn posted(&self) -> (bool, bool, bool) {
        let bcast = !self.bcast_out.is_empty();
        (!self.tx_queue.is_empty(), self.dma_pending.is_some(), bcast)
    }

    pub(crate) fn take_dma_req(&mut self) -> Option<crate::types::HostDmaReq> {
        self.dma_pending.take()
    }

    pub(crate) fn dma_complete(&mut self) {
        self.dma_busy = false;
    }

    /// The packet-memory bytes a host DMA of `len` bytes at absolute address
    /// `addr` reads, clipped to the memory's end (DMA engine path).
    pub(crate) fn pmem_dma_src(&self, addr: u32, len: u32) -> &[u8] {
        let at = (addr.saturating_sub(memmap::PMEM_BASE) as usize).min(self.pmem.len());
        let end = (at + len as usize).min(self.pmem.len());
        &self.pmem[at..end]
    }

    /// Copies into packet memory by absolute address (DMA engine path).
    pub(crate) fn pmem_copy_in(&mut self, addr: u32, bytes: &[u8]) {
        let at = addr.saturating_sub(memmap::PMEM_BASE) as usize;
        let end = (at + bytes.len()).min(self.pmem.len());
        if at < end {
            self.pmem[at..end].copy_from_slice(&bytes[..end - at]);
        }
    }

    /// `true` when the one-shot watchdog expired this cycle; re-arms to 0.
    pub(crate) fn watchdog_fired(&mut self) -> bool {
        if self.timer_deadline != 0 && self.now >= self.timer_deadline {
            self.timer_deadline = 0;
            true
        } else {
            false
        }
    }

    /// DMA an arriving packet into `slot`: payload into packet memory, the
    /// first 128 bytes into the data-memory header slot (§4.1). The consumed
    /// `bytes` buffer stays parked with the slot for [`Self::take_tx`].
    pub(crate) fn dma_deliver(&mut self, slot: u8, bytes: Vec<u8>, meta: SlotMeta) -> bool {
        let addr = (self.slot_addr(slot) - memmap::PMEM_BASE) as usize;
        let len = bytes.len().min(SLOT_BYTES as usize);
        if self.rx_queue.is_full() {
            self.counters.count_drop();
            return false;
        }
        self.pmem[addr..addr + len].copy_from_slice(&bytes[..len]);
        let header_at = (self.header_slot_addr(slot) - memmap::DMEM_BASE) as usize;
        let header_len = len.min(self.header_slot_bytes as usize);
        self.dmem[header_at..header_at + header_len].copy_from_slice(&bytes[..header_len]);
        self.slot_state[slot as usize] = Slot {
            meta: Some(meta),
            parked: bytes,
        };
        self.counters.count_rx_frame(len as u64);
        let desc = Desc {
            tag: slot,
            len: len as u32,
            port: meta.ingress_port,
            data: self.slot_addr(slot),
        };
        self.rx_queue
            .push(desc)
            .expect("rx_queue fullness checked above");
        true
    }

    /// Pops a committed send: the descriptor, the frame bytes read back from
    /// packet memory, and the slot's metadata. The bytes land in the slot's
    /// parked ingress buffer when there is one; a self-originated send (or a
    /// slot sent twice) starts from an empty `Vec` and allocates.
    pub(crate) fn take_tx(&mut self) -> Option<(Desc, Vec<u8>, Option<SlotMeta>)> {
        let desc = self.tx_queue.pop()?;
        let Slot {
            meta,
            parked: mut bytes,
        } = match desc.tag {
            crate::types::SELF_TAG => Slot::default(),
            tag => self
                .slot_state
                .get_mut(tag as usize)
                .map(std::mem::take)
                .unwrap_or_default(),
        };
        bytes.clear();
        if let Some(at) = desc.data.checked_sub(memmap::PMEM_BASE) {
            let at = at as usize;
            if at + desc.len as usize <= self.pmem.len() {
                bytes.extend_from_slice(&self.pmem[at..at + desc.len as usize]);
            }
        }
        if !bytes.is_empty() {
            self.counters.count_tx_frame(bytes.len() as u64);
        } else {
            self.counters.count_drop();
        }
        Some((desc, bytes, meta))
    }

    /// How many slots currently hold a parked ingress buffer (never more
    /// than `slots_per_rpu`; zero after a purge or a reconfiguration).
    pub fn parked_buffers(&self) -> usize {
        self.slot_state
            .iter()
            .filter(|s| s.parked.capacity() != 0)
            .count()
    }

    /// Host/interconnect counters for this RPU (§4.3).
    pub(crate) fn counters(&self) -> Counters {
        self.counters
    }

    /// The host-visible status register (§3.4).
    pub(crate) fn status(&self) -> u32 {
        self.status
    }

    /// Takes the most recent firmware-written 64-bit debug value, if any.
    pub(crate) fn take_debug_out(&mut self) -> Option<u64> {
        self.debug_out.take()
    }

    /// Sets the host→RPU half of the debug channel.
    pub(crate) fn set_debug_in(&mut self, value: u64) {
        self.debug_in = value;
    }

    /// Host-initiated store through the same address decode the core uses
    /// (memory loads before boot, debug pokes, Appendix A.6).
    pub(crate) fn host_store(
        &mut self,
        addr: u32,
        value: u32,
        size: AccessSize,
    ) -> Result<u32, BusFault> {
        self.store(addr, value, size)
    }

    /// Raw packet memory (host debugging reads the whole RPU memory, §3.4).
    pub(crate) fn pmem(&self) -> &[u8] {
        &self.pmem
    }

    /// Raw data memory.
    pub(crate) fn dmem(&self) -> &[u8] {
        &self.dmem
    }

    /// The broadcast-region mirror as this RPU sees it.
    pub fn bcast_mirror(&self) -> &[u8] {
        &self.bcast_mirror
    }

    #[inline(always)]
    fn load(&mut self, addr: u32, size: AccessSize) -> Result<BusValue, BusFault> {
        match Region::of(addr) {
            Region::Imem => read(&self.imem, addr, size, addr).map(BusValue::fast),
            Region::Dmem => {
                read(&self.dmem, addr - memmap::DMEM_BASE, size, addr).map(BusValue::fast)
            }
            Region::Pmem => {
                read(&self.pmem, addr - memmap::PMEM_BASE, size, addr).map(|value| BusValue {
                    value,
                    wait_cycles: PMEM_WAIT_CYCLES,
                })
            }
            Region::Io => {
                self.io_accesses += 1;
                Ok(BusValue::fast(self.io_read(addr - memmap::IO_BASE)))
            }
            Region::Bcast => {
                self.impure = true;
                read(&self.bcast_mirror, addr - memmap::BCAST_BASE, size, addr).map(BusValue::fast)
            }
            Region::IoExt => {
                self.impure = true;
                let r = match &mut self.accel {
                    Some(accel) => accel.read_reg(addr - memmap::IO_EXT_BASE),
                    None => rosebud_accel::RegRead::fast(0),
                };
                Ok(BusValue {
                    value: r.value,
                    wait_cycles: r.wait_cycles,
                })
            }
        }
    }

    #[inline(always)]
    fn store(&mut self, addr: u32, value: u32, size: AccessSize) -> Result<u32, BusFault> {
        self.impure = true;
        match Region::of(addr) {
            Region::Imem => {
                // Stores to instruction memory are allowed (the DMA engine
                // loads firmware this way) but unusual from the core; the
                // words they touch are decoded again.
                write(&mut self.imem, addr, value, size, addr)?;
                self.icache.refresh(&self.imem, addr, size.bytes() as usize);
                Ok(0)
            }
            Region::Dmem => {
                write(&mut self.dmem, addr - memmap::DMEM_BASE, value, size, addr).map(|()| 0)
            }
            Region::Pmem => write(&mut self.pmem, addr - memmap::PMEM_BASE, value, size, addr)
                .map(|()| PMEM_WAIT_CYCLES),
            Region::Io => {
                self.io_accesses += 1;
                self.io_write(addr - memmap::IO_BASE, value);
                Ok(0)
            }
            Region::Bcast => Ok(self.bcast_write(addr - memmap::BCAST_BASE, value)),
            Region::IoExt => {
                if let Some(accel) = &mut self.accel {
                    accel.write_reg(addr - memmap::IO_EXT_BASE, value);
                }
                Ok(0)
            }
        }
    }

    /// A fetch from a PC the decode cache does not cover — misaligned, or
    /// outside instruction memory: a plain word load, with its fault
    /// values. Out of line: firmware never gets here.
    #[inline(never)]
    fn fetch_uncovered(&mut self, pc: u32) -> Fetched {
        Fetched::load(&mut InnerBus(self), pc)
    }
}

/// Log2 of the memory map's alignment: every region base is a multiple of
/// 8 MiB, so an address's top nine bits name its region.
const REGION_SHIFT: u32 = 23;

const _: () = {
    let mask = (1 << REGION_SHIFT) - 1;
    assert!(memmap::IMEM_BASE == 0 && memmap::DMEM_BASE & mask == 0);
    assert!(memmap::PMEM_BASE & mask == 0 && memmap::IO_BASE & mask == 0);
    assert!(memmap::IO_EXT_BASE & mask == 0 && memmap::BCAST_BASE & mask == 0);
    assert!(memmap::BCAST_BYTES <= 1 << REGION_SHIFT);
};

/// Where a core access lands (DESIGN.md, "The in-box instruction path").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Imem,
    Dmem,
    Pmem,
    Io,
    /// The broadcast window.
    Bcast,
    /// The accelerator: everything at or above `IO_EXT_BASE` outside the
    /// broadcast window.
    IoExt,
}

impl Region {
    /// One shift and one match: the region decode of every core access.
    #[inline]
    fn of(addr: u32) -> Self {
        const DMEM: u32 = memmap::DMEM_BASE >> REGION_SHIFT;
        const PMEM: u32 = memmap::PMEM_BASE >> REGION_SHIFT;
        const IO: u32 = memmap::IO_BASE >> REGION_SHIFT;
        const IO_EXT: u32 = memmap::IO_EXT_BASE >> REGION_SHIFT;
        const BCAST: u32 = memmap::BCAST_BASE >> REGION_SHIFT;
        match addr >> REGION_SHIFT {
            ..DMEM => Region::Imem,
            DMEM..PMEM => Region::Dmem,
            PMEM..IO => Region::Pmem,
            IO..IO_EXT => Region::Io,
            BCAST if addr - memmap::BCAST_BASE < memmap::BCAST_BYTES => Region::Bcast,
            _ => Region::IoExt,
        }
    }
}

/// The `size`-byte little-endian value at offset `off` of `mem`, or a load
/// fault at `addr` when it runs past the end.
#[inline]
fn read(mem: &[u8], off: u32, size: AccessSize, addr: u32) -> Result<u32, BusFault> {
    let off = off as usize;
    let value = match size {
        AccessSize::Byte => mem.get(off).map(|&b| u32::from(b)),
        AccessSize::Half => mem
            .get(off..off + 2)
            .map(|b| u32::from(u16::from_le_bytes([b[0], b[1]]))),
        AccessSize::Word => mem
            .get(off..off + 4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
    };
    value.ok_or(BusFault {
        addr,
        is_store: false,
    })
}

/// Writes the low `size` bytes of `value` at offset `off` of `mem`, or
/// faults the store at `addr` when they run past the end.
#[inline]
fn write(
    mem: &mut [u8],
    off: u32,
    value: u32,
    size: AccessSize,
    addr: u32,
) -> Result<(), BusFault> {
    let (off, n) = (off as usize, size.bytes() as usize);
    match mem.get_mut(off..off + n) {
        Some(bytes) => {
            bytes.copy_from_slice(&value.to_le_bytes()[..n]);
            Ok(())
        }
        None => Err(BusFault {
            addr,
            is_store: true,
        }),
    }
}

struct InnerBus<'a>(&'a mut RpuInner);

impl Bus for InnerBus<'_> {
    #[inline(always)]
    fn load(&mut self, addr: u32, size: AccessSize) -> Result<BusValue, BusFault> {
        self.0.load(addr, size)
    }

    #[inline(always)]
    fn store(&mut self, addr: u32, value: u32, size: AccessSize) -> Result<u32, BusFault> {
        self.0.store(addr, value, size)
    }

    /// The one instruction path: every instruction-memory word has a valid
    /// slot, so a word-aligned fetch from instruction memory is one compare
    /// and one read, and anything else is a plain word load.
    #[inline(always)]
    fn fetch(&mut self, pc: u32) -> Fetched {
        match self.0.icache.get(pc) {
            Some(entry) => entry,
            None => self.0.fetch_uncovered(pc),
        }
    }
}

/// The I/O surface native firmware programs against: the same interconnect
/// and accelerator interfaces the assembled firmware reaches through MMIO,
/// plus explicit cycle charging.
pub struct RpuIo<'a> {
    inner: &'a mut RpuInner,
    stall: &'a mut u64,
}

impl RpuIo<'_> {
    /// This RPU's index.
    pub fn rpu_id(&self) -> usize {
        self.inner.id
    }

    /// Current cycle (all RPU timers are synchronized, §6.2).
    pub fn now(&self) -> u64 {
        self.inner.now
    }

    /// Charges `cycles` of software execution time.
    pub fn charge(&mut self, cycles: u64) {
        *self.stall += cycles;
    }

    /// `true` when a received descriptor is pending (`in_pkt_ready()`).
    pub fn rx_ready(&self) -> bool {
        !self.inner.rx_queue.is_empty()
    }

    /// Consumes the pending descriptor (`RECV_DESC_RELEASE = 1`).
    pub fn rx_pop(&mut self) -> Option<Desc> {
        self.inner.rx_queue.pop()
    }

    /// Sends a descriptor out (`pkt_send`). Returns `false` on egress-queue
    /// backpressure.
    pub fn send(&mut self, desc: Desc) -> bool {
        self.inner.tx_queue.push(desc).is_ok()
    }

    /// Reads an accelerator register, charging any wait-states.
    pub fn accel_read(&mut self, offset: u32) -> u32 {
        match &mut self.inner.accel {
            Some(accel) => {
                let r = accel.read_reg(offset);
                *self.stall += u64::from(r.wait_cycles);
                r.value
            }
            None => 0,
        }
    }

    /// Writes an accelerator register.
    pub fn accel_write(&mut self, offset: u32, value: u32) {
        if let Some(accel) = &mut self.inner.accel {
            accel.write_reg(offset, value);
        }
    }

    /// Reads `len` bytes at packet-memory address `addr` (absolute, i.e.
    /// `PMEM_BASE`-relative addresses as they appear in descriptors).
    pub fn pmem_read(&self, addr: u32, len: usize) -> &[u8] {
        let at = (addr - memmap::PMEM_BASE) as usize;
        &self.inner.pmem[at..(at + len).min(self.inner.pmem.len())]
    }

    /// Writes bytes at packet-memory address `addr`.
    pub fn pmem_write(&mut self, addr: u32, bytes: &[u8]) {
        let at = (addr - memmap::PMEM_BASE) as usize;
        let end = (at + bytes.len()).min(self.inner.pmem.len());
        self.inner.pmem[at..end].copy_from_slice(&bytes[..end - at]);
    }

    /// The low-latency header copy the DMA engine placed for `slot`.
    pub fn header(&self, slot: u8) -> &[u8] {
        let at = (self.inner.header_slot_addr(slot) - memmap::DMEM_BASE) as usize;
        &self.inner.dmem[at..at + self.inner.header_slot_bytes as usize]
    }

    /// Packet-memory address of `slot`.
    pub fn slot_addr(&self, slot: u8) -> u32 {
        self.inner.slot_addr(slot)
    }

    /// Sets the host-visible status register (§3.4 breakpoints).
    pub fn set_status(&mut self, value: u32) {
        self.inner.status = value;
    }

    /// Writes the 64-bit debug channel to the host.
    pub fn debug_out(&mut self, value: u64) {
        self.inner.debug_out = Some(value);
    }

    /// Reads the 64-bit debug channel from the host.
    pub fn debug_in(&self) -> u64 {
        self.inner.debug_in
    }

    /// Sets the interrupt mask register (`set_masks`).
    pub fn set_masks(&mut self, masks: u32) {
        self.inner.masks = masks;
    }

    /// Writes a word into the semi-coherent broadcast region; it propagates
    /// to every RPU (§4.4). Charges blocking wait when the outbox is full.
    pub fn broadcast(&mut self, offset: u32, value: u32) {
        let wait = self.inner.bcast_write(offset, value);
        *self.stall += u64::from(wait);
    }

    /// Pops the oldest broadcast-delivery notification: the region offset
    /// and the delivered word.
    pub fn bcast_poll(&mut self) -> Option<(u32, u32)> {
        let offset = self.inner.bcast_notify.pop()?;
        Some((offset, self.bcast_read(offset)))
    }

    /// Reads a word from this RPU's broadcast mirror.
    pub fn bcast_read(&self, offset: u32) -> u32 {
        let word = offset as usize & !3;
        u32::from_le_bytes(
            self.inner.bcast_mirror[word..word + 4]
                .try_into()
                .expect("4-byte slice"),
        )
    }

    /// Arms the one-shot watchdog timer: the timer interrupt fires after
    /// `cycles` (§3.4 hang detection). 0 disarms.
    pub fn arm_watchdog(&mut self, cycles: u32) {
        self.inner.io_write(io::TIMER_CMP, cycles);
    }

    /// Starts a DMA of `len` bytes from packet memory (`local_addr`,
    /// absolute) into host DRAM at `host_addr` — the A.8 "save the desired
    /// state to the host" path. Completion raises the DMA interrupt.
    pub fn host_dma_write(&mut self, host_addr: u32, local_addr: u32, len: u32) {
        self.inner.io_write(io::DMA_HOST_ADDR, host_addr);
        self.inner.io_write(io::DMA_LOCAL_ADDR, local_addr);
        self.inner.io_write(io::DMA_LEN, len);
        self.inner.io_write(io::DMA_CTRL, 1);
    }

    /// Starts a DMA of `len` bytes from host DRAM into packet memory —
    /// runtime table loads and post-PR state restore (A.8).
    pub fn host_dma_read(&mut self, host_addr: u32, local_addr: u32, len: u32) {
        self.inner.io_write(io::DMA_HOST_ADDR, host_addr);
        self.inner.io_write(io::DMA_LOCAL_ADDR, local_addr);
        self.inner.io_write(io::DMA_LEN, len);
        self.inner.io_write(io::DMA_CTRL, 2);
    }

    /// `true` while a host DMA is in flight.
    pub fn host_dma_busy(&self) -> bool {
        self.inner.dma_busy || self.inner.dma_pending.is_some()
    }
}

/// The last cycle a box ran its core stage, one value shared by every RPU
/// of the box: a sleeping lane's reads work out where its core would be
/// from this.
pub(crate) type CoreClock = Arc<AtomicU64>;

/// The longest poll-loop period, in cycles, the spin probe records.
const MAX_SPIN_PHASES: usize = 32;

/// One cycle of a poll loop's period as the spin probe saw it: the core and
/// the stall counter at the start of that cycle.
struct Phase {
    cpu: Cpu,
    stalled: u64,
}

/// Spin-loop elision: what [`Rpu::tick`] knows about a core that polls an
/// empty queue (DESIGN.md, "Spin-loop elision").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spin {
    /// Nothing to look at.
    Off,
    /// A poll missed, and [`Arm::SecondMiss`] asks for another.
    Missed,
    /// A poll missed; the next instruction boundary opens a probe.
    Armed,
    /// Recording one iteration of the loop from `phases[0]`, or — after an
    /// inert tick — holding a proven one for the lane to fall asleep on.
    Probing,
}

/// What opens the spin probe's next recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// A poll miss.
    Miss,
    /// A second miss: the last probe was cut short by an outside event, so
    /// a lane whose work keeps coming back within a loop period stops
    /// paying for probes that never park.
    SecondMiss,
    /// Nothing until something from outside settles the lane or its
    /// watchdog fires: the last probe found its loop is no fixed point (an
    /// impure access, a register that moved, a period too long), and the
    /// core would find the same on every iteration.
    Settle,
}

/// Why a lane's core is not stepped, from cycle `from` on (DESIGN.md, "The
/// tick, and core-tick elision"). A lane falls asleep in one place,
/// [`Rpu::fall_asleep`], and wakes in one, [`Rpu::settle_through`]. A fault
/// outlives every wake until a new engine replaces the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sleep {
    from: Cycle,
    kind: Kind,
}

/// One row each of DESIGN.md's table. What a kind needs besides `from`
/// stays where the sleep leaves it: a loop's period in `phases`, a native
/// stall tail in `stall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// An RV32 core in `wfi` with nothing pending, or halted, or no engine.
    Wfi,
    /// An RV32 core in the loop `phases` records, one period past `phases[0]`.
    Parked,
    /// Native firmware in a charged stall tail, then waiting.
    Native,
    /// An injected wedge.
    Hung,
    /// An injected crash.
    Crashed,
    /// Mid-PR: the region is inert, its accelerator included.
    Reconfiguring,
}

/// What ticking a sleeping lane every cycle would have added to its
/// counters ([`Rpu::owed`]).
#[derive(Debug, Clone, Copy, Default)]
struct Owed {
    /// Firmware cycles, and the stall cycles among them.
    sw: u64,
    stalled: u64,
    /// `mcycle`, `minstret` (native: ticks that were not stalls), waits.
    cycles: u64,
    instret: u64,
    waits: u64,
    /// Cycles parked in a poll loop, and the instructions they credit.
    parked: u64,
    credited: u64,
    /// For a poll loop: the recorded phase the cycles end on.
    phase: Option<usize>,
}

/// One RPU: memories + core + accelerator + partial-reconfiguration state.
pub struct Rpu {
    inner: RpuInner,
    engine: Engine,
    stall: u64,
    state: RpuState,
    /// Firmware cycles spent and packets handled (Fig. 9 accounting).
    sw_cycles: u64,
    /// Share of `sw_cycles` spent consuming stall cycles rather than issuing.
    stalled_cycles: u64,
    /// Per-PC cycle attribution, when profiling is enabled (§4.3 firmware
    /// profile). `BTreeMap` for deterministic iteration order.
    profile: Option<std::collections::BTreeMap<u32, u64>>,
    pub(crate) boot_image: Option<Image>,
    /// Why the core is not stepped: `None` while it is.
    sleep: Option<Sleep>,
    /// Host-visible count of watchdog expirations (detection signal).
    watchdog_fires: u64,
    spin: Spin,
    arm: Arm,
    /// The spin probe's record of one period, one entry per cycle. Its
    /// capacity is reserved with the first RV32 image, so a park never
    /// allocates.
    phases: Vec<Phase>,
    clock: CoreClock,
    counts: SpinCounts,
}

/// The lane's share of [`SimStats`], kept where the spin probe and
/// [`Rpu::settle`] already branch; [`Rpu::sim_stats`] adds what a core
/// parked now owes.
#[derive(Debug, Clone, Copy, Default)]
struct SpinCounts {
    started: u64,
    refused: u64,
    settled: u64,
    /// Cycles parked in a poll loop, through the last settle.
    parked: u64,
    /// Instructions credited in closed form, through the last settle.
    credited: u64,
    /// Instructions retired by RV32 engines since replaced.
    retired: u64,
}

impl std::fmt::Debug for Rpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rpu")
            .field("id", &self.inner.id)
            .field("state", &self.state)
            .field("engine", &self.engine)
            .finish()
    }
}

impl Rpu {
    pub(crate) fn new(id: usize, cfg: &RosebudConfig) -> Self {
        Self {
            inner: RpuInner::new(id, cfg),
            engine: Engine::Empty,
            stall: 0,
            state: RpuState::Stopped,
            sw_cycles: 0,
            stalled_cycles: 0,
            profile: None,
            boot_image: None,
            sleep: None,
            watchdog_fires: 0,
            spin: Spin::Off,
            arm: Arm::Miss,
            phases: Vec::new(),
            clock: CoreClock::default(),
            counts: SpinCounts::default(),
        }
    }

    /// Reads the box's [`CoreClock`] instead of a private one.
    pub(crate) fn on_clock(mut self, clock: CoreClock) -> Self {
        self.clock = clock;
        self
    }

    /// This RPU's index.
    pub(crate) fn id(&self) -> usize {
        self.inner.id
    }

    /// The PR/lifecycle state.
    pub fn state(&self) -> RpuState {
        self.state
    }

    /// Access to memories, queues and registers.
    pub fn inner(&self) -> &RpuInner {
        &self.inner
    }

    pub(crate) fn inner_mut(&mut self) -> &mut RpuInner {
        &mut self.inner
    }

    /// Installs an accelerator into the PR region.
    pub(crate) fn set_accelerator(&mut self, accel: Box<dyn Accelerator>) {
        self.inner.accel = Some(accel);
    }

    /// The installed accelerator, if any. Beside a sleeping core it stands
    /// where its last tick left it, until the lane next settles
    /// ([`Accelerator::skip`]).
    pub fn accelerator(&self) -> Option<&dyn Accelerator> {
        self.inner.accel.as_deref()
    }

    /// Mutable access to the installed accelerator (host-side table loads).
    pub(crate) fn accelerator_mut(&mut self) -> Option<&mut (dyn Accelerator + '_)> {
        match &mut self.inner.accel {
            Some(b) => Some(&mut **b),
            None => None,
        }
    }

    /// Loads an assembled firmware image into instruction memory and boots
    /// the RV32 core at the image base.
    pub(crate) fn load_riscv(&mut self, image: &Image) {
        let bytes = image.bytes();
        let base = image.base() as usize;
        self.inner.imem[base..base + bytes.len()].copy_from_slice(&bytes);
        let inner = &mut self.inner;
        inner.icache.refresh(&inner.imem, image.base(), bytes.len());
        self.boot_image = Some(image.clone());
        if self.phases.capacity() == 0 {
            self.phases.reserve_exact(MAX_SPIN_PHASES);
        }
        let mut cpu = Box::new(Cpu::new(image.base()));
        cpu.raise_irq(31); // reserved line kept clear; ensures mip plumbed
        cpu.clear_irq(31);
        self.replace_engine(Engine::Riscv(cpu), RpuState::Running);
        // A stale watchdog acknowledgement must not carry into a fresh boot.
        self.inner.timer_ack = false;
    }

    /// Installs native firmware and runs its boot hook.
    pub(crate) fn load_native(&mut self, mut firmware: Box<dyn Firmware>) {
        let mut io = RpuIo {
            inner: &mut self.inner,
            stall: &mut self.stall,
        };
        firmware.boot(&mut io);
        self.replace_engine(Engine::Native(firmware), RpuState::Running);
    }

    /// Wakes the lane for good (a fault goes with the old core) and counts
    /// what the old engine retired before `engine` replaces it.
    fn replace_engine(&mut self, engine: Engine, state: RpuState) {
        self.settle_through(self.ticked_through(), None);
        if let Engine::Riscv(cpu) = &self.engine {
            self.counts.retired += cpu.instret();
        }
        (self.engine, self.state) = (engine, state);
    }

    /// Raises interrupt `line`, subject to the firmware's mask register.
    pub(crate) fn raise_irq(&mut self, line: u8) {
        if self.inner.masks & (1 << line) == 0 && line >= 4 {
            return; // evict/poke respect set_masks (Appendix B/C)
        }
        match &mut self.engine {
            Engine::Riscv(cpu) => cpu.raise_irq(line),
            Engine::Native(_) => self.inner.native_irqs |= 1 << line,
            Engine::Empty => {}
        }
    }

    /// Begins the drain phase before partial reconfiguration: the system has
    /// already told the LB to stop sending here; the RPU finishes in-flight
    /// work. Also raises the eviction interrupt (A.8).
    pub(crate) fn start_drain(&mut self) {
        self.state = RpuState::Draining;
        self.raise_irq(crate::types::irq::EVICT);
    }

    /// `true` when all queues are empty and the accelerator is idle.
    pub(crate) fn is_drained(&self) -> bool {
        let fw_idle = match &self.engine {
            Engine::Native(fw) => fw.is_idle(),
            Engine::Riscv(_) => true, // assembled firmware drains its slots
            Engine::Empty => true,
        };
        self.inner.rx_queue.is_empty()
            && self.inner.tx_queue.is_empty()
            && fw_idle
            && self.inner.accel.as_ref().is_none_or(|a| !a.is_busy())
    }

    /// Enters the reconfiguring state until cycle `until`; the region is
    /// inert and the old engine is discarded. The PR bitstream wipes the
    /// region: an injected fault goes with it, and the fresh region starts
    /// with a clean watchdog history.
    pub(crate) fn begin_reconfigure(&mut self, until: u64) {
        self.replace_engine(Engine::Empty, RpuState::Reconfiguring { until });
        self.stall = 0;
        self.watchdog_fires = 0;
        for slot in &mut self.inner.slot_state {
            slot.parked = Vec::new();
        }
        if let Some(accel) = &mut self.inner.accel {
            accel.reset();
        }
    }

    /// Total firmware cycles consumed (for cycles-per-packet accounting).
    pub fn sw_cycles(&self) -> u64 {
        self.sw_cycles + self.owed(self.ticked_through()).sw
    }

    /// Snapshot of the host-visible hardware performance counters (§4.3).
    pub(crate) fn perf(&self) -> PerfCounters {
        let c = self.inner.counters();
        let owed = self.owed(self.ticked_through());
        let (instret, mem_waits) = match &self.engine {
            Engine::Riscv(cpu) => (cpu.instret(), cpu.mem_wait_cycles()),
            Engine::Native(_) => (self.sw_cycles - self.stalled_cycles, 0),
            Engine::Empty => (0, 0),
        };
        PerfCounters {
            sw_cycles: self.sw_cycles(),
            instret: instret + owed.instret,
            stall_cycles: self.stalled_cycles + owed.stalled,
            mem_wait_cycles: mem_waits + owed.waits,
            backpressure_stalls: c.stall_cycles,
            rx_frames: c.rx_frames,
            tx_frames: c.tx_frames,
            drops: c.drops,
        }
    }

    /// Turns on per-PC cycle attribution for the RV32 engine. Idempotent;
    /// the accumulated profile survives reloads (it is host-side state).
    pub(crate) fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(std::collections::BTreeMap::new());
        }
    }

    /// The per-PC cycle profile: cycles charged at each program counter.
    /// `None` until a trace with [`crate::TraceConfig::pc_profile`] is
    /// enabled ([`crate::Rosebud::enable_tracing`]); empty for native
    /// firmware (which has no PCs to attribute).
    pub fn pc_profile(&self) -> Option<&std::collections::BTreeMap<u32, u64>> {
        self.profile.as_ref()
    }

    /// Whether the core halted on `ebreak` or a fault.
    pub fn is_halted(&self) -> bool {
        self.fault() == Some(Kind::Crashed)
            || matches!(&self.engine, Engine::Riscv(cpu) if cpu.is_halted())
    }

    /// Whether an injected hang has wedged the firmware. This is a
    /// diagnostic oracle for tests and snapshots; the supervisor must not
    /// use it — it *infers* hangs from the watchdog counter and frozen
    /// progress, which is the point of the exercise.
    pub fn is_hung(&self) -> bool {
        self.fault() == Some(Kind::Hung)
    }

    /// The injected fault that stops the core, whether or not it sleeps.
    fn fault(&self) -> Option<Kind> {
        self.sleep
            .map(|sleep| sleep.kind)
            .filter(|kind| matches!(kind, Kind::Hung | Kind::Crashed))
    }

    /// Count of watchdog expirations since boot — part of the host-visible
    /// counter block the supervisor polls (§3.4).
    pub fn watchdog_fires(&self) -> u64 {
        self.watchdog_fires
    }

    /// Fault injection: wedge the firmware. The core keeps "executing" (from
    /// the outside it looks busy) but never again retires useful work, pops
    /// a descriptor, or re-arms its watchdog.
    pub(crate) fn force_hang(&mut self) {
        if matches!(self.state, RpuState::Running | RpuState::Draining) {
            self.settle_through(self.ticked_through(), Some(Kind::Hung));
        }
    }

    /// Fault injection: crash the firmware as if it trapped on an illegal
    /// instruction — the region halts and the halt flag goes host-visible.
    /// As a hang does, the core then stops until a reload or a PR: its
    /// accelerator finishes what it holds, its frames wait for a purge.
    pub(crate) fn force_crash(&mut self) {
        if matches!(self.state, RpuState::Running | RpuState::Draining) {
            self.settle_through(self.ticked_through(), Some(Kind::Crashed));
            self.state = RpuState::Stopped;
        }
    }

    /// Forced eviction (A.8 failure path): destroys every in-flight
    /// descriptor and slot binding inside the region. Returns the number of
    /// packets destroyed. Only meaningful right before `begin_reconfigure`
    /// on a region that will not drain on its own.
    pub(crate) fn purge(&mut self) -> usize {
        let mut n = self.inner.rx_queue.flush();
        n += self.inner.tx_queue.flush();
        self.inner.slot_state.fill_with(Slot::default);
        n
    }

    /// The RV32 core as it stands, when this RPU runs assembled firmware
    /// (host debugger register inspection, §3.4). Parked in a poll loop, it
    /// is the recorded phase the elapsed cycles land on, its counters where
    /// the closed form puts them.
    pub fn cpu(&self) -> Option<Cpu> {
        let Engine::Riscv(cpu) = &self.engine else {
            return None;
        };
        let owed = self.owed(self.ticked_through());
        let mut now = match owed.phase {
            Some(phase) => self.phases[phase].cpu.clone(),
            None => (**cpu).clone(),
        };
        now.credit(
            cpu.cycles() + owed.cycles - now.cycles(),
            cpu.instret() + owed.instret - now.instret(),
            cpu.mem_wait_cycles() + owed.waits - now.mem_wait_cycles(),
        );
        Some(now)
    }

    /// The last cycle this core counts as ticked through: its own last
    /// tick, or — asleep — the last cycle its box ran the core stage.
    fn ticked_through(&self) -> Cycle {
        self.clock.load(Ordering::Relaxed).max(self.inner.now)
    }

    /// The one closed-form reader: what ticking the core every cycle from
    /// its [`Sleep`]'s `from` through `through` would have added to its
    /// counters (DESIGN.md's table). Only a native sleep and a poll loop
    /// owe anything.
    fn owed(&self, through: Cycle) -> Owed {
        let Some(Sleep { from, kind }) = self.sleep else {
            return Owed::default();
        };
        let n = (through + 1).saturating_sub(from);
        match (kind, &self.engine) {
            (Kind::Native, _) => {
                let stalled = n.min(self.stall);
                Owed {
                    sw: n,
                    stalled,
                    instret: n - stalled,
                    ..Owed::default()
                }
            }
            (Kind::Parked, Engine::Riscv(cpu)) => {
                let period = self.phases.len() as u64;
                let (laps, phase) = (n / period, (n % period) as usize);
                // The stored core stands one period past `phases[0]`: it owes
                // the way from there to `phases[phase]`, and `laps` periods.
                let counts = |cpu: &Cpu, stalled| {
                    [cpu.cycles(), cpu.instret(), cpu.mem_wait_cycles(), stalled]
                };
                let [first, at] =
                    [&self.phases[0], &self.phases[phase]].map(|p| counts(&p.cpu, p.stalled));
                let stored = counts(cpu, self.stalled_cycles);
                let [cycles, instret, waits, stalled] =
                    std::array::from_fn(|i| at[i] - first[i] + laps * (stored[i] - first[i]));
                Owed {
                    sw: n,
                    stalled,
                    cycles,
                    instret,
                    waits,
                    parked: n,
                    credited: instret,
                    phase: Some(phase),
                }
            }
            _ => Owed::default(),
        }
    }

    /// This lane's share of the box's [`SimStats`]: the spin probe's
    /// counts, the cycles parked and instructions credited — a core parked
    /// now included, in closed form — and the instructions stepped, which
    /// are the rest of `minstret`.
    pub(crate) fn sim_stats(&self) -> SimStats {
        let (c, owed) = (self.counts, self.owed(self.ticked_through()));
        let credited = c.credited + owed.credited;
        let retired = match &self.engine {
            Engine::Riscv(cpu) => c.retired + cpu.instret() + owed.instret,
            _ => c.retired,
        };
        SimStats {
            parked_lane_cycles: c.parked + owed.parked,
            stepped_instrs: retired - credited,
            credited_instrs: credited,
            probes_started: c.started,
            probes_refused: c.refused,
            probes_settled: c.settled,
            io_accesses: self.inner.io_accesses,
            ..SimStats::default()
        }
    }

    /// Wakes the lane through the last cycle its box ticked (a host
    /// `TIMER_CMP` write arms the watchdog from there). `Lanes` calls it
    /// before anything from outside reaches the lane, while the bus still
    /// answers what a parked loop read. A fault stays.
    pub(crate) fn settle(&mut self) {
        self.settle_through(self.ticked_through(), self.fault());
    }

    /// The one exit from a [`Sleep`], through cycle `through`, which fault
    /// injection and a new engine take too: the counters take what
    /// [`Rpu::owed`] says (a poll loop's part-period is stepped), the
    /// accelerator catches up in one [`Accelerator::skip`] (none mid-PR),
    /// any probe is dropped, and the lane wakes as `then`, `None` or a fault.
    fn settle_through(&mut self, through: Cycle, then: Option<Kind>) {
        let kind = self.sleep.map(|sleep| sleep.kind);
        self.arm = match (kind, self.spin, self.arm) {
            (Some(Kind::Parked), ..) | (.., Arm::Settle) => Arm::Miss,
            (_, Spin::Probing, _) => Arm::SecondMiss,
            (.., arm) => arm,
        };
        let slept = through.saturating_sub(self.inner.now);
        let stepped = match kind {
            Some(Kind::Parked) => slept % self.phases.len() as u64,
            _ => 0,
        };
        let owed = self.owed(through - stepped);
        self.sw_cycles += owed.sw;
        self.stalled_cycles += owed.stalled;
        self.counts.parked += owed.parked + stepped;
        self.counts.credited += owed.credited;
        match (kind, &mut self.engine) {
            (Some(Kind::Native), _) => self.stall -= owed.stalled,
            (Some(Kind::Parked), Engine::Riscv(cpu)) => {
                cpu.credit(owed.cycles, owed.instret, owed.waits);
                self.counts.settled += 1;
            }
            _ => {}
        }
        if let Some(accel) = &mut self.inner.accel {
            if slept > stepped && kind != Some(Kind::Reconfiguring) {
                accel.skip(slept - stepped);
            }
        }
        for cycle in through + 1 - stepped..=through {
            self.cycle(cycle);
        }
        // What the loop read is about to change: its misses are stale.
        (self.spin, self.inner.missed, self.inner.impure) = (Spin::Off, false, false);
        self.inner.now = through;
        self.sleep = then.map(|kind| Sleep {
            from: through + 1,
            kind,
        });
    }

    /// The one entry into a [`Sleep`], from `Lanes::run_cores` after a tick
    /// at `now` that reported the lane inert: returns the horizon when it
    /// lies past `now`, the lane asleep from `now + 1`.
    pub(crate) fn fall_asleep(&mut self, now: Cycle) -> Option<Cycle> {
        let (kind, horizon) = self.quiet_horizon().filter(|&(_, at)| at > now)?;
        self.sleep = Some(Sleep {
            from: now + 1,
            kind,
        });
        Some(horizon)
    }

    /// What a lane whose tick just reported it inert may sleep as, and the
    /// first cycle a tick could change any state if nothing from outside
    /// wakes it first — one arm per row of DESIGN.md's table; `None`, which
    /// ticks it on, is always safe, while a horizon too far is a bug
    /// the elision differentials catch. Every kind is capped by the armed
    /// watchdog and, outside a PR, by its accelerator's horizon.
    fn quiet_horizon(&self) -> Option<(Kind, Cycle)> {
        let inner = &self.inner;
        let wd = match inner.timer_deadline {
            0 => Cycle::MAX,
            deadline => deadline,
        };
        if let RpuState::Reconfiguring { .. } = self.state {
            return Some((Kind::Reconfiguring, wd));
        }
        let accel = match inner.accel.as_deref().map(Accelerator::horizon) {
            None => Cycle::MAX,
            Some(0) => return None,
            Some(h) => inner.now.saturating_add(h).saturating_add(1),
        };
        // A queued send keeps stage 6 busy, and a host `TIMER_CMP` write
        // leaves an acknowledgement the next tick consumes.
        let queued = !inner.tx_queue.is_empty() || inner.timer_ack;
        let (kind, core) = match (self.sleep, &self.engine) {
            (Some(fault), _) => (fault.kind, wd),
            (None, Engine::Native(fw)) => {
                let waiting = !queued && inner.rx_queue.is_empty() && inner.native_irqs == 0;
                let idle = if waiting { fw.horizon() } else { 0 };
                if self.stall == 0 && idle == 0 {
                    return None;
                }
                let tail = inner.now.saturating_add(self.stall).saturating_add(1);
                (Kind::Native, wd.min(tail.saturating_add(idle)))
            }
            // An RV32 stall tail is a cycle or two, not worth a sleep.
            _ if self.stall != 0 || queued => return None,
            (None, Engine::Riscv(cpu)) if cpu.is_parked() => (Kind::Wfi, wd),
            (None, Engine::Riscv(_)) if self.spin == Spin::Probing => (Kind::Parked, wd),
            (None, Engine::Riscv(_)) => return None,
            (None, Engine::Empty) => (Kind::Wfi, wd),
        };
        Some((kind, core.min(accel)))
    }

    /// Advances one clock cycle of a lane that is not asleep: core, then
    /// accelerator. Returns `true` when the tick left the lane inert — any
    /// [`Kind`] but a poll loop, or a poll loop the spin probe has just
    /// proven — the cheap gate before [`Rpu::fall_asleep`], so a busy core
    /// never pays for a horizon.
    #[inline(always)]
    pub(crate) fn tick(&mut self, now: u64) -> bool {
        let inert = self.cycle(now);
        if self.spin != Spin::Off || self.inner.missed && self.arm != Arm::Settle {
            return inert | self.watch();
        }
        inert
    }

    /// One clock cycle of a core that is not asleep.
    #[inline(always)]
    fn cycle(&mut self, now: Cycle) -> bool {
        self.inner.now = now;
        if self.inner.watchdog_fired() {
            self.watchdog_fires += 1;
            self.raise_irq(crate::types::irq::TIMER);
            // The fire changes the core's state: it ends any probe, and a
            // loop the probe refused may be a fixed point now.
            (self.spin, self.arm) = (Spin::Off, Arm::Miss);
        }
        if matches!(self.state, RpuState::Reconfiguring { .. }) {
            // Even past `until`: the host completes the boot via
            // `Rosebud::finish_reconfigure`; until then the region stays
            // inert.
            return true;
        }
        if self.fault().is_some() {
            // Wedged or crashed firmware: the core is not stepped, the
            // accelerator finishes what it was already doing, nothing else
            // happens. The armed watchdog (checked above) is the escape
            // hatch.
            if let Some(accel) = &mut self.inner.accel {
                accel.tick(&self.inner.pmem);
            }
            return true;
        }

        // Core.
        let mut inert = false;
        if let Engine::Native(_) = self.engine {
            inert = self.native_cycle();
        } else if self.stall > 0 {
            self.stall -= 1;
            self.sw_cycles += 1;
            self.stalled_cycles += 1;
        } else {
            match &mut self.engine {
                Engine::Riscv(cpu) => {
                    // A TIMER_CMP write since the last step (host-side
                    // watchdog pet) acknowledges the pending timer line.
                    if self.inner.timer_ack {
                        self.inner.timer_ack = false;
                        cpu.clear_irq(crate::types::irq::TIMER);
                    }
                    let pc = cpu.pc();
                    let mut bus = InnerBus(&mut self.inner);
                    match cpu.step(&mut bus) {
                        StepResult::Executed { cycles } => {
                            self.stall += u64::from(cycles.saturating_sub(1));
                            self.sw_cycles += 1;
                            if let Some(profile) = &mut self.profile {
                                // Attribute the instruction's full cost here;
                                // the stall-consumption ticks that follow are
                                // this same instruction's tail.
                                *profile.entry(pc).or_insert(0) += u64::from(cycles);
                            }
                        }
                        StepResult::Ecall => {
                            self.sw_cycles += 1;
                            // The environment call is a side effect.
                            self.inner.impure = true;
                        }
                        StepResult::WaitingForInterrupt => inert = true,
                        StepResult::Break | StepResult::Fault(_) => {
                            self.state = RpuState::Stopped;
                            inert = true;
                        }
                    }
                    // The step itself may have re-armed the watchdog; the
                    // write acknowledges the pending line at write time.
                    if self.inner.timer_ack {
                        self.inner.timer_ack = false;
                        cpu.clear_irq(crate::types::irq::TIMER);
                    }
                }
                // Native firmware ran in `native_cycle` above.
                Engine::Native(_) | Engine::Empty => inert = true,
            }
        }
        // Accelerator streams from its exclusive packet-memory port.
        if let Some(accel) = &mut self.inner.accel {
            accel.tick(&self.inner.pmem);
        }
        inert
    }

    /// The core half of one cycle of native firmware: a cycle of its stall
    /// tail, or its interrupts and its tick. Returns `true` when the tick
    /// left the lane sleepable — a stall tail, or firmware with a horizon —
    /// so [`Rpu::fall_asleep`] is worth consulting. Out of line: an RV32
    /// core's tick should not carry it.
    #[inline(never)]
    fn native_cycle(&mut self) -> bool {
        let Engine::Native(fw) = &mut self.engine else {
            return true;
        };
        if self.stall > 0 {
            self.stall -= 1;
            self.sw_cycles += 1;
            self.stalled_cycles += 1;
            return true;
        }
        let mut io = RpuIo {
            inner: &mut self.inner,
            stall: &mut self.stall,
        };
        // Deliver pending unmasked interrupts first.
        let pending = io.inner.native_irqs;
        if pending != 0 {
            io.inner.native_irqs = 0;
            for line in 0..32 {
                if pending & (1 << line) != 0 {
                    fw.interrupt(line, &mut io);
                }
            }
        }
        fw.tick(&mut io);
        self.sw_cycles += 1;
        // Native interrupts are delivered eagerly above; the ack flag must
        // still be consumed so it cannot leak into a later RV32 reload.
        self.inner.timer_ack = false;
        self.stall != 0 || fw.horizon() != 0
    }

    /// The spin probe, run after a cycle in which an RV32 core missed a poll
    /// or was being watched. From the first instruction boundary after a
    /// miss it records one cycle per phase until the core is back at that
    /// boundary's state — a proven fixed point, if every access in between
    /// was pure and no register ever left its value. Returns `true` when
    /// this cycle proved the loop, leaving the probe open on its record. Out of line: a core that never misses a
    /// poll should not carry it in its tick.
    #[inline(never)]
    fn watch(&mut self) -> bool {
        let missed = std::mem::take(&mut self.inner.missed);
        let impure = std::mem::take(&mut self.inner.impure);
        let Engine::Riscv(cpu) = &self.engine else {
            self.spin = Spin::Off;
            return false;
        };
        // A loop is stalls and retired instructions of a running core; and
        // a core that can never sleep never probes. A busy accelerator —
        // one with no horizon ahead — keeps the core ticking for now: the
        // probe waits for the next miss rather than start, and a loop it
        // proved does not park.
        let repeatable = matches!(self.state, RpuState::Running | RpuState::Draining)
            && self.sleep.is_none()
            && !cpu.is_waiting();
        let can_sleep = self.profile.is_none();
        let accel_idle = || self.inner.accel.as_deref().is_none_or(|a| a.horizon() > 0);
        let boundary = self.stall == 0;
        let phase = |rpu: &Self| Phase {
            cpu: (**cpu).clone(),
            stalled: rpu.stalled_cycles,
        };
        self.spin = match self.spin {
            _ if !can_sleep => {
                self.arm = Arm::Settle;
                Spin::Off
            }
            _ if !repeatable => Spin::Off,
            Spin::Off if !missed => Spin::Off,
            Spin::Off if self.arm == Arm::SecondMiss => Spin::Missed,
            Spin::Missed if !missed => Spin::Missed,
            Spin::Off | Spin::Missed | Spin::Armed if !boundary => Spin::Armed,
            Spin::Off | Spin::Missed | Spin::Armed if !accel_idle() => Spin::Off,
            Spin::Off | Spin::Missed | Spin::Armed => {
                self.phases.clear();
                self.phases.push(phase(self));
                self.counts.started += 1;
                Spin::Probing
            }
            Spin::Probing if !impure && boundary && cpu.same_state(&self.phases[0].cpu) => {
                if accel_idle() {
                    // A proven fixed point: the probe holds it for the lane
                    // to fall asleep on.
                    return true;
                }
                self.counts.refused += 1;
                Spin::Off
            }
            Spin::Probing
                if impure
                    || self.phases.len() == MAX_SPIN_PHASES
                    || boundary
                        && (1..32)
                            .map(Reg::new)
                            .any(|r| cpu.reg(r) != self.phases[0].cpu.reg(r)) =>
            {
                self.arm = Arm::Settle;
                self.counts.refused += 1;
                Spin::Off
            }
            Spin::Probing => {
                let at = phase(self);
                self.phases.push(at);
                Spin::Probing
            }
        };
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::port;
    use rosebud_riscv::assemble;

    fn cfg() -> RosebudConfig {
        RosebudConfig::with_rpus(4)
    }

    fn meta(id: u64) -> SlotMeta {
        SlotMeta {
            packet_id: id,
            ts_gen: 0,
            ingress_port: 0,
            orig_len: 64,
        }
    }

    #[test]
    fn dma_places_packet_and_header() {
        let mut rpu = Rpu::new(0, &cfg());
        let frame: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        assert!(rpu.inner_mut().dma_deliver(2, frame.clone(), meta(7)));
        let addr = (rpu.inner().slot_addr(2) - memmap::PMEM_BASE) as usize;
        assert_eq!(&rpu.inner().pmem()[addr..addr + 200], &frame[..]);
        // Header copy: first 128 bytes land in dmem.
        let h = (rpu.inner().header_slot_addr(2) - memmap::DMEM_BASE) as usize;
        assert_eq!(&rpu.inner().dmem()[h..h + 128], &frame[..128]);
    }

    /// The forwarder firmware of §6.1 in our assembly: poll for a packet,
    /// flip the port bit, send it back.
    fn forwarder_asm() -> String {
        "
            .equ IO, 0x02000000
                li t0, IO
                li t2, 0x01000000        # port field XOR mask (bit 24)
            poll:
                lw a0, 0x00(t0)          # RECV_READY
                beqz a0, poll
                lw a1, 0x04(t0)          # RECV_DESC_LO
                lw a2, 0x08(t0)          # RECV_DESC_DATA
                sw zero, 0x0c(t0)        # RECV_RELEASE
                xor a1, a1, t2           # swap egress port
                sw a1, 0x10(t0)          # SEND_DESC_LO
                sw a2, 0x14(t0)          # SEND_DESC_DATA (commit)
                j poll
            "
        .to_string()
    }

    #[test]
    fn riscv_forwarder_round_trips_a_packet() {
        let mut rpu = Rpu::new(0, &cfg());
        let image = assemble(&forwarder_asm()).unwrap();
        rpu.load_riscv(&image);
        let frame = vec![0xabu8; 64];
        let arrived = frame.clone();
        let allocation = arrived.as_ptr();
        rpu.inner_mut().dma_deliver(0, arrived, meta(1));
        assert_eq!(rpu.inner().parked_buffers(), 1);
        for now in 0..100 {
            rpu.tick(now);
        }
        let (desc, bytes, m) = rpu.inner_mut().take_tx().expect("packet forwarded");
        assert_eq!(desc.port, 1, "port flipped 0 -> 1");
        assert_eq!(bytes, frame);
        assert_eq!(m.unwrap().packet_id, 1);
        assert_eq!(
            bytes.as_ptr(),
            allocation,
            "the ingress buffer leaves again"
        );
        assert_eq!(rpu.inner().parked_buffers(), 0);
    }

    #[test]
    fn forwarder_loop_is_about_16_cycles_per_packet() {
        // §6.1: "the minimum time for our packet forwarder to read a
        // descriptor and send it back is 16 cycles".
        let mut rpu = Rpu::new(0, &cfg());
        rpu.load_riscv(&assemble(&forwarder_asm()).unwrap());
        // Warm up.
        for now in 0..200 {
            rpu.tick(now);
        }
        // Keep the RPU saturated and measure packets over a window.
        let frame = vec![0u8; 64];
        let mut sent = 0u64;
        let window = 1600;
        for now in 200..200 + window {
            // Top up the rx queue.
            for slot in 0..8 {
                if rpu.inner().rx_queue.iter().all(|d| d.tag != slot)
                    && rpu.inner().slot_state[slot as usize].meta.is_none()
                {
                    rpu.inner_mut().dma_deliver(slot, frame.clone(), meta(0));
                }
            }
            rpu.tick(now);
            while rpu.inner_mut().take_tx().is_some() {
                sent += 1;
            }
        }
        let cycles_per_packet = window as f64 / sent as f64;
        assert!(
            (12.0..=20.0).contains(&cycles_per_packet),
            "forwarder took {cycles_per_packet} cycles/packet, expected ~16"
        );
    }

    #[test]
    fn native_firmware_charge_paces_execution() {
        struct Fw {
            handled: u64,
        }
        impl Firmware for Fw {
            fn tick(&mut self, io: &mut RpuIo<'_>) {
                if let Some(desc) = io.rx_pop() {
                    self.handled += 1;
                    io.send(Desc {
                        port: desc.port ^ 1,
                        ..desc
                    });
                    io.charge(15); // 1 (this tick) + 15 = 16 cycles/packet
                }
            }
        }
        let mut rpu = Rpu::new(0, &cfg());
        rpu.load_native(Box::new(Fw { handled: 0 }));
        let frame = vec![0u8; 64];
        let mut sent = 0;
        for now in 0..320 {
            for slot in 0..4 {
                if rpu.inner().slot_state[slot as usize].meta.is_none() {
                    rpu.inner_mut().dma_deliver(slot, frame.clone(), meta(0));
                }
            }
            rpu.tick(now);
            while rpu.inner_mut().take_tx().is_some() {
                sent += 1;
            }
        }
        assert_eq!(sent, 320 / 16);
    }

    #[test]
    fn drop_by_zero_length() {
        let mut rpu = Rpu::new(0, &cfg());
        rpu.load_native(Box::new(DropAll));
        struct DropAll;
        impl Firmware for DropAll {
            fn tick(&mut self, io: &mut RpuIo<'_>) {
                if let Some(desc) = io.rx_pop() {
                    io.send(Desc { len: 0, ..desc });
                }
            }
        }
        rpu.inner_mut().dma_deliver(0, vec![1u8; 64], meta(9));
        for now in 0..10 {
            rpu.tick(now);
        }
        let (desc, bytes, _) = rpu.inner_mut().take_tx().unwrap();
        assert_eq!(desc.len, 0);
        assert!(bytes.is_empty());
        assert_eq!(rpu.inner().counters().drops, 1);
    }

    #[test]
    fn status_register_and_debug_channel_visible() {
        let mut rpu = Rpu::new(0, &cfg());
        let image = assemble(
            "
            .equ IO, 0x02000000
                li t0, IO
                li a0, 0x1234
                sw a0, 0x18(t0)      # STATUS
                li a1, 0x55
                sw a1, 0x1c(t0)      # DEBUG_OUT_L
                li a2, 0xAA
                sw a2, 0x20(t0)      # DEBUG_OUT_H commits
                ebreak
            ",
        )
        .unwrap();
        rpu.load_riscv(&image);
        for now in 0..50 {
            rpu.tick(now);
        }
        assert_eq!(rpu.inner().status, 0x1234);
        assert_eq!(rpu.inner().debug_out, Some(0xAA_0000_0055));
        assert!(rpu.is_halted());
        assert_eq!(rpu.state(), RpuState::Stopped);
    }

    #[test]
    fn drain_and_reconfigure_lifecycle() {
        let mut rpu = Rpu::new(0, &cfg());
        struct Echo;
        impl Firmware for Echo {
            fn tick(&mut self, io: &mut RpuIo<'_>) {
                if let Some(desc) = io.rx_pop() {
                    io.send(Desc {
                        port: port::HOST,
                        ..desc
                    });
                }
            }
        }
        rpu.load_native(Box::new(Echo));
        rpu.inner_mut().dma_deliver(0, vec![0u8; 64], meta(1));
        rpu.start_drain();
        assert!(!rpu.is_drained());
        for now in 0..10 {
            rpu.tick(now);
        }
        let _ = rpu.inner_mut().take_tx();
        assert!(rpu.is_drained());
        rpu.begin_reconfigure(100);
        assert!(matches!(
            rpu.state(),
            RpuState::Reconfiguring { until: 100 }
        ));
        rpu.tick(50); // inert
        rpu.load_native(Box::new(Echo));
        assert_eq!(rpu.state(), RpuState::Running);
    }

    #[test]
    fn timer_mmio_reads_synced_clock() {
        let mut rpu = Rpu::new(0, &cfg());
        let image = assemble(
            "
            .equ IO, 0x02000000
                li t0, IO
                lw a0, 0x24(t0)   # TIMER_L
                ebreak
            ",
        )
        .unwrap();
        rpu.load_riscv(&image);
        for now in 1000..1010 {
            rpu.tick(now);
        }
        let cpu = rpu.cpu().unwrap();
        let a0 = cpu.reg(rosebud_riscv::Reg::parse("a0").unwrap());
        assert!((1000..1010).contains(&u64::from(a0)), "timer read {a0}");
    }

    /// The region decode and the one instruction path against the code
    /// they replaced: the range chain below is the bus as it was, kept as
    /// the oracle (DESIGN.md, "The in-box instruction path").
    mod region {
        use super::*;
        use proptest::prelude::*;
        use rosebud_accel::FirewallMatcher;
        use rosebud_riscv::{decode, CpuFault};

        /// The load path before the one-shift decode: a chain of range
        /// tests, broadcast window first.
        fn chain_load(
            inner: &mut RpuInner,
            addr: u32,
            size: AccessSize,
        ) -> Result<BusValue, BusFault> {
            let n = size.bytes() as usize;
            let read_from = |mem: &[u8], off: u32| -> Result<u32, BusFault> {
                let off = off as usize;
                if off + n > mem.len() {
                    return Err(BusFault {
                        addr,
                        is_store: false,
                    });
                }
                let mut bytes = [0u8; 4];
                bytes[..n].copy_from_slice(&mem[off..off + n]);
                Ok(u32::from_le_bytes(bytes))
            };
            match addr {
                a if (memmap::BCAST_BASE..memmap::BCAST_BASE + memmap::BCAST_BYTES)
                    .contains(&a) =>
                {
                    inner.impure = true;
                    Ok(BusValue::fast(read_from(
                        &inner.bcast_mirror,
                        a - memmap::BCAST_BASE,
                    )?))
                }
                a if a >= memmap::IO_EXT_BASE => {
                    inner.impure = true;
                    let r = match &mut inner.accel {
                        Some(accel) => accel.read_reg(a - memmap::IO_EXT_BASE),
                        None => rosebud_accel::RegRead::fast(0),
                    };
                    Ok(BusValue {
                        value: r.value,
                        wait_cycles: r.wait_cycles,
                    })
                }
                a if a >= memmap::IO_BASE => Ok(BusValue::fast(inner.io_read(a - memmap::IO_BASE))),
                a if a >= memmap::PMEM_BASE => Ok(BusValue {
                    value: read_from(&inner.pmem, a - memmap::PMEM_BASE)?,
                    wait_cycles: PMEM_WAIT_CYCLES,
                }),
                a if a >= memmap::DMEM_BASE => Ok(BusValue::fast(read_from(
                    &inner.dmem,
                    a - memmap::DMEM_BASE,
                )?)),
                a => Ok(BusValue::fast(read_from(&inner.imem, a)?)),
            }
        }

        /// The store path before the one-shift decode. It leaves the decode
        /// cache alone: the test checks the cache against a fresh decode of
        /// instruction memory instead.
        fn chain_store(
            inner: &mut RpuInner,
            addr: u32,
            value: u32,
            size: AccessSize,
        ) -> Result<u32, BusFault> {
            inner.impure = true;
            let n = size.bytes() as usize;
            let bytes = value.to_le_bytes();
            let copy = |mem: &mut [u8], off: u32| {
                let off = off as usize;
                if off + n > mem.len() {
                    return Err(BusFault {
                        addr,
                        is_store: true,
                    });
                }
                mem[off..off + n].copy_from_slice(&bytes[..n]);
                Ok(())
            };
            match addr {
                a if (memmap::BCAST_BASE..memmap::BCAST_BASE + memmap::BCAST_BYTES)
                    .contains(&a) =>
                {
                    Ok(inner.bcast_write(a - memmap::BCAST_BASE, value))
                }
                a if a >= memmap::IO_EXT_BASE => {
                    if let Some(accel) = &mut inner.accel {
                        accel.write_reg(a - memmap::IO_EXT_BASE, value);
                    }
                    Ok(0)
                }
                a if a >= memmap::IO_BASE => {
                    inner.io_write(a - memmap::IO_BASE, value);
                    Ok(0)
                }
                a if a >= memmap::PMEM_BASE => {
                    copy(&mut inner.pmem, a - memmap::PMEM_BASE).map(|()| PMEM_WAIT_CYCLES)
                }
                a if a >= memmap::DMEM_BASE => {
                    copy(&mut inner.dmem, a - memmap::DMEM_BASE).map(|()| 0)
                }
                a => copy(&mut inner.imem, a).map(|()| 0),
            }
        }

        /// The fetch before the one instruction path: a plain word load,
        /// decoded where it decodes.
        fn chain_fetch(inner: &mut RpuInner, pc: u32) -> Fetched {
            match chain_load(inner, pc, AccessSize::Word) {
                Ok(v) => decode(v.value).map_or(Fetched::Word(v.value), Fetched::Decoded),
                Err(fault) => Fetched::Fault(fault.addr),
            }
        }

        /// An RPU's bus with an accelerator, a firmware image, two frames
        /// queued and a broadcast delivered, so every register has
        /// something to say.
        fn inner() -> RpuInner {
            let mut rpu = Rpu::new(1, &cfg());
            rpu.set_accelerator(Box::new(FirewallMatcher::from_prefixes(&[[10, 0, 0, 1]])));
            rpu.load_riscv(&assemble(&forwarder_asm()).unwrap());
            let mut inner = rpu.inner;
            inner.dma_deliver(0, vec![7u8; 64], meta(1));
            inner.dma_deliver(3, vec![9u8; 200], meta(2));
            let msg = BcastMsg {
                from: 2,
                offset: 8,
                value: 0x5a5a_5a5a,
                sent_at: 0,
            };
            inner.deliver_bcast(&msg);
            inner
        }

        /// Everything an access can change, the accelerator's innards
        /// aside (its reads are compared value by value).
        fn state(inner: &RpuInner) -> String {
            format!(
                "rx={:?} tx={:?} status={} dbg={:?}/{} in={} masks={} irq={:#x} wd={} ack={} \
                 dma=({},{},{},{:?},{}) lo={} missed={} impure={} bcast={:?} notify={:?} {:?}",
                inner.rx_queue.iter().collect::<Vec<_>>(),
                inner.tx_queue.iter().collect::<Vec<_>>(),
                inner.status,
                inner.debug_out,
                inner.debug_out_staged,
                inner.debug_in,
                inner.masks,
                inner.bcast_irq_mask,
                inner.timer_deadline,
                inner.timer_ack,
                inner.dma_host_addr,
                inner.dma_local_addr,
                inner.dma_len,
                inner.dma_pending,
                inner.dma_busy,
                inner.send_staged_lo,
                inner.missed,
                inner.impure,
                inner.bcast_out.iter().collect::<Vec<_>>(),
                inner.bcast_notify.iter().collect::<Vec<_>>(),
                inner.counters,
            )
        }

        /// Every word slot holds what decoding instruction memory gives.
        fn cache_is_fresh(inner: &RpuInner) -> bool {
            let mut fresh = DecodeCache::new(inner.imem.len());
            fresh.refresh(&inner.imem, 0, inner.imem.len());
            (0..inner.imem.len() as u32)
                .step_by(4)
                .all(|pc| inner.icache.get(pc) == fresh.get(pc))
        }

        /// Region edges: every base, every memory's end, the broadcast
        /// window's end, the top of the address space.
        fn edges() -> Vec<u32> {
            vec![
                0,
                IMEM_BYTES,
                memmap::DMEM_BASE,
                memmap::DMEM_BASE + DMEM_BYTES,
                memmap::PMEM_BASE,
                memmap::PMEM_BASE + PMEM_BYTES,
                memmap::IO_BASE,
                memmap::IO_BASE + 0x60,
                memmap::IO_EXT_BASE,
                memmap::BCAST_BASE,
                memmap::BCAST_BASE + memmap::BCAST_BYTES,
                memmap::BCAST_BASE + (1 << 23),
                0x8000_0000,
                u32::MAX - 7,
            ]
        }

        /// `(edge or random, offset from the edge, random address, width,
        /// load / store / fetch, stored value)`.
        fn access() -> impl Strategy<Value = (usize, i32, u32, usize, u8, u32)> {
            (
                0usize..edges().len() + 2,
                -8i32..=8,
                any::<u32>(),
                0usize..3,
                0u8..3,
                any::<u32>(),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A sequence of loads, stores and fetches around every region
            /// edge and at random does the same on the one-shift decode as
            /// on the range chain: value, wait cycles, fault address and
            /// direction, the `impure` / `missed` flags and every side
            /// effect — and instruction memory's slots stay a fresh decode
            /// of it.
            #[test]
            fn the_region_decode_matches_the_range_chain(
                ops in proptest::collection::vec(access(), 1..16),
            ) {
                let (mut a, mut b) = (inner(), inner());
                let edges = edges();
                for (edge, delta, random, width, kind, value) in ops {
                    let addr = match edges.get(edge) {
                        Some(&e) => e.wrapping_add_signed(delta),
                        None => random,
                    };
                    let size = [AccessSize::Byte, AccessSize::Half, AccessSize::Word][width];
                    let (got, want) = match kind {
                        0 => (
                            format!("{:?}", a.load(addr, size)),
                            format!("{:?}", chain_load(&mut b, addr, size)),
                        ),
                        1 => (
                            format!("{:?}", a.store(addr, value, size)),
                            format!("{:?}", chain_store(&mut b, addr, value, size)),
                        ),
                        _ => (
                            format!("{:?}", InnerBus(&mut a).fetch(addr)),
                            format!("{:?}", chain_fetch(&mut b, addr)),
                        ),
                    };
                    prop_assert_eq!(&got, &want, "{} at {:#x} ({:?})", kind, addr, size);
                    prop_assert_eq!(state(&a), state(&b), "{} at {:#x}", kind, addr);
                    prop_assert!(a.imem == b.imem && a.dmem == b.dmem, "memory at {:#x}", addr);
                    prop_assert!(a.pmem == b.pmem && a.bcast_mirror == b.bcast_mirror);
                    prop_assert!(cache_is_fresh(&a), "stale slot after {} at {:#x}", kind, addr);
                }
            }
        }

        /// A misaligned PC (`jalr` clears only bit 0), the last word of
        /// instruction memory, the word past it, an illegal word and a PC
        /// in data memory fetch what a plain word load fetches.
        #[test]
        fn fetches_off_the_slots_take_the_plain_word_load() {
            let mut a = inner();
            a.store(0x40, 0xffff_ffff, AccessSize::Word).unwrap();
            let end = IMEM_BYTES;
            let want = |pc| chain_fetch(&mut inner_with_illegal(), pc);
            for pc in [
                2,
                6,
                0x40,
                end - 4,
                end - 2,
                end,
                end + 4,
                memmap::DMEM_BASE + 8,
            ] {
                assert_eq!(InnerBus(&mut a).fetch(pc), want(pc), "pc {pc:#x}");
            }
            assert_eq!(InnerBus(&mut a).fetch(end), Fetched::Fault(end));
            assert_eq!(InnerBus(&mut a).fetch(0x40), Fetched::Word(0xffff_ffff));
        }

        fn inner_with_illegal() -> RpuInner {
            let mut b = inner();
            chain_store(&mut b, 0x40, 0xffff_ffff, AccessSize::Word).unwrap();
            b
        }

        /// An undecodable word faults with its own `(pc, word)`.
        #[test]
        fn an_illegal_word_faults_with_its_pc_and_word() {
            let mut rpu = Rpu::new(0, &cfg());
            rpu.load_riscv(&assemble("nop\nnop\nebreak").unwrap());
            rpu.inner.store(4, 0xffff_ffff, AccessSize::Word).unwrap();
            let mut cpu = Cpu::new(0);
            let mut bus = InnerBus(&mut rpu.inner);
            assert!(matches!(cpu.step(&mut bus), StepResult::Executed { .. }));
            assert_eq!(
                cpu.step(&mut bus),
                StepResult::Fault(CpuFault::IllegalInstruction {
                    pc: 4,
                    word: 0xffff_ffff
                })
            );
        }

        /// The firmware patches the upper half of an instruction it has
        /// already run with `sh`; the next run must see the new word.
        #[test]
        fn a_halfword_store_into_code_re_decodes_its_slot() {
            let patch = assemble("addi a0, a0, 64").unwrap().words()[0];
            let image = assemble(&format!(
                "
                    li a0, 0
                    jal ra, site
                    li t0, site
                    li t1, {}
                    sh t1, 2(t0)
                    jal ra, site
                    ebreak
                site:
                    addi a0, a0, 1
                    jalr zero, ra, 0
                ",
                patch >> 16
            ))
            .unwrap();
            let mut rpu = Rpu::new(0, &cfg());
            rpu.load_riscv(&image);
            for now in 0..200 {
                rpu.tick(now);
            }
            assert!(rpu.is_halted());
            let a0 = rpu.cpu().unwrap().reg(Reg::parse("a0").unwrap());
            assert_eq!(a0, 65, "1 before the patch, 64 after it");
        }
    }

    mod horizon {
        use super::*;
        use proptest::prelude::*;
        use rosebud_accel::{RegRead, ResourceUsage};
        use std::collections::BTreeSet;

        /// Everything a tick could change that anything outside the RPU can
        /// observe: counters, the core (pc, registers, CSRs), lifecycle state,
        /// the fault flags, the watchdog, and both descriptor queues.
        fn observable(rpu: &Rpu) -> String {
            format!(
                "{:?} {:?} halted={} hung={} {}",
                rpu.perf(),
                rpu.cpu(),
                rpu.is_halted(),
                rpu.is_hung(),
                fabric(rpu)
            )
        }

        /// What the fabric sees of an RPU besides its counters: lifecycle
        /// state, the watchdog, both descriptor queues and the posted words.
        fn fabric(rpu: &Rpu) -> String {
            format!(
                "{:?} wd={} fires={} rx={:?} tx={:?} posted={:?}",
                rpu.state(),
                rpu.inner().timer_deadline,
                rpu.watchdog_fires(),
                rpu.inner().rx_queue.iter().collect::<Vec<_>>(),
                rpu.inner().tx_queue.iter().collect::<Vec<_>>(),
                rpu.inner().posted(),
            )
        }

        /// Firmware shapes that reach every sleep condition: a busy-poll
        /// loop, parked behind a timer alarm with a multi-cycle stall tail
        /// on the way in, halted on `ebreak`, a busy-poll loop with a
        /// packet-memory stall in its period under a watchdog that expires
        /// mid-spin (raising an unmasked-but-disabled line), and two native
        /// firmwares: one that waits through its horizon, one that charges
        /// a stall tail on every poll.
        fn boot(rpu: &mut Rpu, kind: usize) {
            let asm = match kind {
                0 => forwarder_asm(),
                1 => "
                    .equ IO, 0x02000000
                        li t0, IO
                        li t1, 0x01000000
                        li t6, 0x32          # timer, evict and poke lines
                        csrw mie, t6
                    park:
                        li t5, 90
                        sw t5, 0x40(t0)      # TIMER_CMP: arm the alarm
                        lw a3, 0(t1)         # packet-memory load: stall tail
                        wfi
                        j park
                    "
                .to_string(),
                2 => "li a0, 7\nmul a0, a0, a0\nebreak".to_string(),
                3 => "
                    .equ IO, 0x02000000
                        li t0, IO
                        li t1, 0x01000000
                        li t5, 150
                        sw t5, 0x40(t0)      # TIMER_CMP: one watchdog, never petted
                    poll:
                        lw a3, 0(t1)         # packet-memory load: 1 wait-state
                        lw a0, 0x00(t0)      # RECV_READY
                        beqz a0, poll
                        lw a1, 0x04(t0)
                        lw a2, 0x08(t0)
                        sw zero, 0x0c(t0)    # RECV_RELEASE
                        sw a1, 0x10(t0)
                        sw a2, 0x14(t0)      # SEND_DESC_DATA (commit)
                        j poll
                    "
                .to_string(),
                4 => return rpu.load_native(Box::new(Waiter)),
                _ => return rpu.load_native(Box::new(Staller)),
            };
            rpu.load_riscv(&assemble(&asm).unwrap());
        }

        /// Native firmware that waits for a frame and says so through its
        /// horizon: it forwards each one after a charged stall, and notes
        /// each interrupt in its status register under a watchdog it never
        /// pets.
        struct Waiter;

        impl Firmware for Waiter {
            fn boot(&mut self, io: &mut RpuIo<'_>) {
                io.arm_watchdog(150);
            }
            fn tick(&mut self, io: &mut RpuIo<'_>) {
                if let Some(desc) = io.rx_pop() {
                    io.charge(6);
                    io.send(Desc {
                        port: desc.port ^ 1,
                        ..desc
                    });
                }
            }
            fn interrupt(&mut self, line: u8, io: &mut RpuIo<'_>) {
                io.set_status(u32::from(line));
            }
            fn horizon(&self) -> u64 {
                u64::MAX
            }
        }

        /// Native firmware with no horizon that charges a stall tail on
        /// every poll, a longer one for each frame it forwards.
        struct Staller;

        impl Firmware for Staller {
            fn tick(&mut self, io: &mut RpuIo<'_>) {
                match io.rx_pop() {
                    Some(desc) => {
                        io.charge(11);
                        io.send(desc);
                    }
                    None => io.charge(4),
                }
            }
        }

        /// Ticks between two of [`Pulse`]'s pulses.
        const PULSE: u64 = 37;

        /// An accelerator with a finite horizon: it counts the cycles it is
        /// brought through, in a counter the test reads, and every
        /// [`PULSE`]-th tick is one `skip` must not stand in for.
        struct Pulse(Arc<AtomicU64>);

        impl Accelerator for Pulse {
            fn name(&self) -> &str {
                "pulse"
            }
            fn read_reg(&mut self, _offset: u32) -> RegRead {
                RegRead::fast(0)
            }
            fn write_reg(&mut self, _offset: u32, _value: u32) {}
            fn tick(&mut self, _pmem: &[u8]) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn is_busy(&self) -> bool {
                false
            }
            fn load_table(&mut self, _offset: u32, _data: &[u8]) {}
            fn reset(&mut self) {
                self.0.store(0, Ordering::Relaxed);
            }
            fn resources(&self) -> ResourceUsage {
                ResourceUsage::default()
            }
            fn horizon(&self) -> u64 {
                PULSE - 1 - self.0.load(Ordering::Relaxed) % PULSE
            }
            fn skip(&mut self, k: u64) {
                assert!(k <= self.horizon(), "skipped {k} ticks past a pulse");
                self.0.fetch_add(k, Ordering::Relaxed);
            }
        }

        /// Applies scheduled event `what` to `rpu` at cycle `now`.
        fn apply(rpu: &mut Rpu, now: u64, what: u8, arg: u32) {
            match what {
                0 => rpu.raise_irq(crate::types::irq::POKE),
                1 => rpu.raise_irq(crate::types::irq::TIMER),
                2 => {
                    let slot = (arg % 4) as u8;
                    rpu.inner_mut().dma_deliver(slot, vec![0u8; 64], meta(0));
                }
                3 => {
                    // Host-side watchdog arm.
                    let cmp = memmap::IO_BASE + io::TIMER_CMP;
                    rpu.inner_mut()
                        .host_store(cmp, arg, AccessSize::Word)
                        .unwrap();
                }
                4 => rpu.force_hang(),
                5 => rpu.force_crash(),
                _ => rpu.begin_reconfigure(now + u64::from(arg)),
            }
        }

        /// Core-tick elision skips `tick(now)` while `now` is below the
        /// horizon. Two RPUs running firmware `kind`, with a [`Pulse`]
        /// beside each when `pulse`, take the same events (`(gap, what,
        /// arg)`, see [`apply`]); one is ticked every cycle, the other the
        /// way `Lanes` ticks it — not at all below its horizon, settled
        /// before every event and when the horizon comes due, reading the
        /// box's core clock. Below the horizon the ticked one must change
        /// nothing the fabric sees, and every cycle the two must read
        /// alike: counters in closed form, the core's pc, registers and
        /// CSRs from the recorded phase, the accelerator whenever it ticks.
        /// Returns the kinds of sleep the elided one fell into.
        fn twins(
            kind: usize,
            pulse: bool,
            events: Vec<(u64, u8, u32)>,
        ) -> Result<BTreeSet<String>, TestCaseError> {
            let clock = CoreClock::default();
            let mut ticked = Rpu::new(0, &cfg());
            let mut elided = Rpu::new(0, &cfg()).on_clock(clock.clone());
            let counts = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
            for (rpu, count) in [&mut ticked, &mut elided].into_iter().zip(&counts) {
                if pulse {
                    rpu.set_accelerator(Box::new(Pulse(count.clone())));
                }
                boot(rpu, kind);
            }
            let mut at = 0u64;
            let mut schedule: Vec<(u64, u8, u32)> = events
                .into_iter()
                .map(|(gap, what, arg)| {
                    at += gap;
                    (at, what, arg)
                })
                .collect();
            schedule.reverse();
            // `Some((horizon, what the fabric saw when it fell asleep))`.
            let mut asleep: Option<(u64, String)> = None;
            let mut slept = 0u32;
            let mut kinds = BTreeSet::new();
            for now in 0..at + 300 {
                while schedule.last().is_some_and(|e| e.0 == now) {
                    let (_, what, arg) = schedule.pop().unwrap();
                    elided.settle();
                    asleep = None;
                    apply(&mut ticked, now, what, arg);
                    apply(&mut elided, now, what, arg);
                }
                if asleep.as_ref().is_some_and(|(horizon, _)| now >= *horizon) {
                    elided.settle();
                    asleep = None;
                }
                clock.store(now, Ordering::Relaxed);
                ticked.tick(now);
                let fell = match asleep {
                    Some(_) => None,
                    None if elided.tick(now) => elided.fall_asleep(now),
                    None => None,
                };
                // Stage 6 collects committed sends, a sleeping lane's too.
                while ticked.inner_mut().take_tx().is_some() {}
                while elided.inner_mut().take_tx().is_some() {}
                match (&asleep, fell) {
                    (Some((_, seen)), _) => {
                        slept += 1;
                        prop_assert_eq!(&fabric(&ticked), seen, "cycle {}", now);
                    }
                    (None, Some(horizon)) => {
                        kinds.insert(format!("{:?}", elided.sleep.unwrap().kind));
                        asleep = Some((horizon, fabric(&elided)));
                    }
                    (None, None) => {
                        let [ticked, elided] = counts.each_ref().map(|c| c.load(Ordering::Relaxed));
                        prop_assert_eq!(elided, ticked, "accelerator at cycle {}", now);
                    }
                }
                prop_assert_eq!(observable(&elided), observable(&ticked), "cycle {}", now);
            }
            prop_assert!(slept > 0, "firmware {} never slept", kind);
            Ok(kinds)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn a_core_below_its_quiet_horizon_reads_like_one_ticked_every_cycle(
                kind in 0usize..6,
                pulse in any::<bool>(),
                events in proptest::collection::vec((1u64..60, 0u8..7, 1u32..200), 0..24),
            ) {
                twins(kind, pulse, events)?;
            }
        }

        /// Every kind of sleep is twinned: each firmware shape, beside a
        /// [`Pulse`] and without, and a forwarder that hangs, crashes or
        /// starts a PR.
        #[test]
        fn every_kind_of_sleep_reads_like_a_core_ticked_every_cycle() {
            let mut kinds = BTreeSet::new();
            for pulse in [false, true] {
                for kind in 0..6 {
                    kinds.extend(twins(kind, pulse, vec![(120, 2, 1), (90, 1, 0)]).unwrap());
                }
                for fault in [4, 5, 6] {
                    kinds.extend(twins(0, pulse, vec![(50, 2, 1), (40, fault, 40)]).unwrap());
                    kinds.extend(twins(5, pulse, vec![(50, 2, 1), (40, fault, 40)]).unwrap());
                }
            }
            let all = [
                "Crashed",
                "Hung",
                "Native",
                "Parked",
                "Reconfiguring",
                "Wfi",
            ];
            assert_eq!(kinds, BTreeSet::from(all.map(String::from)));
        }

        /// A watchdog fire raises a line under a core being probed: it ends
        /// the probe, whose phase 0 will not come back, and re-arms one, so
        /// the loop still parks once the line is up.
        #[test]
        fn a_watchdog_fire_mid_probe_ends_it_and_rearms() {
            let arm_watchdog_for_8_cycles = (8, 3, 8);
            twins(3, false, vec![arm_watchdog_for_8_cycles]).unwrap();
        }
    }
}
