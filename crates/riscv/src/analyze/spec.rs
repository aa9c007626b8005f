//! The machine as the analyzer sees it: memory regions, the device register
//! table, the descriptor/DMA protocol registers and the timing parameters.

use crate::cpu::CostModel;

/// A half-open memory region `[base, base + bytes)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address.
    pub base: u32,
    /// Length in bytes (0 = the region does not exist).
    pub bytes: u32,
}

impl Region {
    /// The empty region.
    pub(crate) const NONE: Region = Region { base: 0, bytes: 0 };

    /// Whether `addr` falls inside the region.
    pub(crate) fn contains(&self, addr: u32) -> bool {
        self.bytes > 0 && addr.wrapping_sub(self.base) < self.bytes
    }
}

/// One memory-mapped device register, with its access direction.
#[derive(Debug, Clone, Copy)]
pub struct MmioReg {
    /// Byte offset of the (word-sized) register from the device window base.
    pub offset: u32,
    /// Human-readable name used in diagnostics.
    pub name: &'static str,
    /// Whether firmware loads from this register are meaningful.
    pub readable: bool,
    /// Whether firmware stores to this register are meaningful.
    pub writable: bool,
}

/// Word-aligned offsets (from [`MachineSpec::io_base`]) of the registers
/// that participate in the descriptor/DMA lifecycle protocol.
///
/// The analyzer derives three typestate automata from this table and checks
/// every firmware path against their product:
///
/// * **RX descriptor**: `poll recv_ready` → `read recv_desc[..]` →
///   `store recv_release`. Reading a descriptor field with nothing held is
///   use-after-release; releasing twice frees a slot the scheduler still
///   owns.
/// * **TX descriptor**: `store send_stage` → `store send_commit`.
///   Committing with nothing staged emits a garbage descriptor
///   (double-commit); restaging over an uncommitted descriptor drops it.
/// * **DMA engine**: program `dma_host_addr`/`dma_local_addr`/`dma_len` →
///   kick `dma_ctrl` → poll `dma_status` to completion. Reprogramming the
///   registers or rekicking while a transfer may still be in flight is a
///   buffer reuse before completion.
///
/// Loads of `recv_desc` registers are also **taint sources** for the
/// packet-byte taint analysis, and stores to the four DMA registers are
/// taint **sinks**.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Read: returns nonzero when a receive descriptor is pending.
    pub recv_ready: u32,
    /// Read: descriptor fields; only meaningful while a descriptor is held.
    pub recv_desc: Vec<u32>,
    /// Write: releases the held descriptor slot back to the scheduler.
    pub recv_release: u32,
    /// Write: stages the first half of a send descriptor.
    pub send_stage: u32,
    /// Write: commits the staged send descriptor to the scheduler.
    pub send_commit: u32,
    /// Write: DMA host (ring) address parameter.
    pub dma_host_addr: u32,
    /// Write: DMA local (pmem/dmem) address parameter.
    pub dma_local_addr: u32,
    /// Write: DMA transfer length parameter.
    pub dma_len: u32,
    /// Write: kicks the programmed transfer off.
    pub dma_ctrl: u32,
    /// Read: nonzero while the transfer is still in flight (completion poll).
    pub dma_status: u32,
}

/// The machine the firmware will run on, as the analyzer sees it.
///
/// `rosebud-riscv` deliberately knows nothing about the Rosebud framework;
/// the framework side constructs this from its own memory map (see
/// `rosebud_core::machine_spec`), and tests can build reduced ones.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Instruction memory size; code lives at `[image.base, imem_bytes)`.
    pub imem_bytes: u32,
    /// Scratch data memory.
    pub dmem: Region,
    /// Packet memory (loads/stores pay `pmem_wait_cycles` extra).
    pub pmem: Region,
    /// Device window base; `[io_base, io_base + io_window_bytes)` must hit
    /// a defined [`MmioReg`].
    pub io_base: u32,
    /// Size of the strict device window.
    pub io_window_bytes: u32,
    /// The device registers inside the window.
    pub io_regs: Vec<MmioReg>,
    /// Accelerator register window (any offset allowed; reads may block).
    pub accel: Region,
    /// Broadcast-receive window (read-only mailbox memory).
    pub bcast: Region,
    /// Offset (from `io_base`) of the watchdog-pet register, if the machine
    /// has a watchdog. A store here, or a `wfi`, counts as liveness.
    pub watchdog_pet_offset: Option<u32>,
    /// The region `sp`-relative accesses must stay inside, if configured.
    pub stack: Option<Region>,
    /// Descriptor/DMA lifecycle registers, if the machine has them; enables
    /// the typestate-protocol and packet-taint checks.
    pub protocol: Option<ProtocolSpec>,
    /// The pipeline timing model used for WCET bounds.
    pub cost: CostModel,
    /// Extra wait-states on packet-memory accesses.
    pub pmem_wait_cycles: u32,
    /// Worst-case extra wait-states on accelerator reads (blocking reads).
    pub accel_read_wait_cycles: u32,
}

impl MachineSpec {
    /// A bare flat-RAM machine (the [`crate::RamBus`] shape): code at 0,
    /// all of `[0, ram_bytes)` writable data, no devices, no watchdog.
    pub fn bare(imem_bytes: u32, ram_bytes: u32) -> Self {
        MachineSpec {
            imem_bytes,
            dmem: Region {
                base: 0,
                bytes: ram_bytes,
            },
            pmem: Region::NONE,
            io_base: 0,
            io_window_bytes: 0,
            io_regs: Vec::new(),
            accel: Region::NONE,
            bcast: Region::NONE,
            watchdog_pet_offset: None,
            stack: None,
            protocol: None,
            cost: CostModel::default(),
            pmem_wait_cycles: 0,
            accel_read_wait_cycles: 0,
        }
    }

    /// Worst-case extra wait-states for a load whose address is unknown.
    pub(super) fn worst_load_wait(&self) -> u32 {
        self.pmem_wait_cycles.max(self.accel_read_wait_cycles)
    }

    /// Worst-case extra wait-states for a store whose address is unknown.
    pub(super) fn worst_store_wait(&self) -> u32 {
        self.pmem_wait_cycles
    }

    /// Classifies a constant address against the machine map. The order
    /// mirrors the RPU bus dispatch (broadcast window first, then the
    /// accelerator/IO/pmem/dmem bases, falling through to imem).
    pub(super) fn locate(&self, addr: u32) -> Where {
        if self.bcast.contains(addr) {
            Where::Bcast
        } else if self.accel.contains(addr) {
            Where::Accel
        } else if self.io_window_bytes > 0 && addr.wrapping_sub(self.io_base) < self.io_window_bytes
        {
            Where::Io(addr - self.io_base)
        } else if self.pmem.contains(addr) {
            Where::Pmem
        } else if self.dmem.contains(addr) {
            Where::Dmem
        } else if addr < self.imem_bytes {
            Where::Imem
        } else {
            Where::Nowhere
        }
    }

    /// The machine-map name of the IO register at word offset `woff`.
    pub(super) fn io_name(&self, woff: u32) -> String {
        self.io_regs
            .iter()
            .find(|r| r.offset == woff)
            .map(|r| r.name.to_string())
            .unwrap_or_else(|| format!("device offset 0x{woff:02x}"))
    }
}

/// What region a constant address falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Where {
    Imem,
    Dmem,
    Pmem,
    Io(u32),
    Accel,
    Bcast,
    Nowhere,
}
