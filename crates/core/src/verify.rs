//! Static firmware verification wired into the load path.
//!
//! `rosebud_riscv::Analyzer` knows nothing about the Rosebud framework; this
//! module is the bridge. [`machine_spec`] renders the framework's memory map
//! ([`crate::memmap`]) into the analyzer's [`MachineSpec`], and
//! [`LoadPolicy`] decides what a [`crate::Rosebud`] does with the resulting
//! [`LintReport`] whenever firmware is (re)loaded: record it, or refuse the
//! image outright so the supervisor's evict/reload ladder never reinstalls a
//! known-bad program.

use rosebud_riscv::{CostModel, LintReport, MachineSpec, MmioReg, ProtocolSpec, Region};

use crate::config::{RosebudConfig, DMEM_BYTES, IMEM_BYTES, PMEM_BYTES};
use crate::rpu::PMEM_WAIT_CYCLES;
use crate::types::memmap::{self, io};

/// Bytes reserved for the firmware stack at the top of data memory. Purely
/// a lint-time convention: `sp`-relative constant accesses must stay inside
/// this window.
pub(crate) const STACK_BYTES: u32 = 4096;

/// Worst-case wait-states a blocking accelerator register read can charge
/// (the firewall matcher's early result read costs up to this much).
const ACCEL_READ_WAIT_CYCLES: u32 = 2;

/// What a [`crate::Rosebud`] does with lint findings at firmware-load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadPolicy {
    /// Do not run the analyzer (the pre-existing behaviour).
    #[default]
    Off,
    /// Run the analyzer and record the report in `diagnostics()`, but load
    /// the firmware regardless.
    Warn,
    /// Like `Warn`, but refuse to install an image whose report contains
    /// errors — at boot, on host loads, and on supervisor PR reloads.
    Deny,
}

/// One recorded lint event: which RPU, when, and what the analyzer said.
#[derive(Debug, Clone)]
pub struct LintRecord {
    /// RPU index the firmware was destined for.
    pub rpu: usize,
    /// System cycle at which the load was vetted (0 = initial boot).
    pub cycle: u64,
    /// Whether the load was refused under [`LoadPolicy::Deny`].
    pub denied: bool,
    /// The analyzer's full report.
    pub report: LintReport,
}

/// Builds the analyzer's machine description from a framework config: the
/// RPU memory map, the interconnect register table with read/write
/// directions, the watchdog-pet register, and the simulator's cost model.
/// Every layout has the same memory sizes, so no field of `_cfg` changes
/// the spec.
pub fn machine_spec(_cfg: &RosebudConfig) -> MachineSpec {
    MachineSpec {
        imem_bytes: IMEM_BYTES,
        dmem: Region {
            base: memmap::DMEM_BASE,
            bytes: DMEM_BYTES,
        },
        pmem: Region {
            base: memmap::PMEM_BASE,
            bytes: PMEM_BYTES,
        },
        io_base: memmap::IO_BASE,
        io_window_bytes: memmap::IO_EXT_BASE - memmap::IO_BASE,
        io_regs: io_reg_table(),
        accel: Region {
            base: memmap::IO_EXT_BASE,
            bytes: memmap::BCAST_BASE - memmap::IO_EXT_BASE,
        },
        bcast: Region {
            base: memmap::BCAST_BASE,
            bytes: memmap::BCAST_BYTES,
        },
        watchdog_pet_offset: Some(io::TIMER_CMP),
        stack: Some(Region {
            base: memmap::DMEM_BASE + DMEM_BYTES - STACK_BYTES,
            bytes: STACK_BYTES,
        }),
        protocol: Some(ProtocolSpec {
            recv_ready: io::RECV_READY,
            recv_desc: vec![io::RECV_DESC_LO, io::RECV_DESC_DATA],
            recv_release: io::RECV_RELEASE,
            send_stage: io::SEND_DESC_LO,
            send_commit: io::SEND_DESC_DATA,
            dma_host_addr: io::DMA_HOST_ADDR,
            dma_local_addr: io::DMA_LOCAL_ADDR,
            dma_len: io::DMA_LEN,
            dma_ctrl: io::DMA_CTRL,
            dma_status: io::DMA_STATUS,
        }),
        cost: CostModel::default(),
        pmem_wait_cycles: PMEM_WAIT_CYCLES,
        accel_read_wait_cycles: ACCEL_READ_WAIT_CYCLES,
    }
}

/// The interconnect register table, with directions matching the RPU's
/// `io_read`/`io_write` dispatch (reads of write-only registers return 0,
/// writes to read-only registers vanish — exactly the silent bugs the
/// analyzer exists to catch).
fn io_reg_table() -> Vec<MmioReg> {
    fn r(offset: u32, name: &'static str) -> MmioReg {
        MmioReg {
            offset,
            name,
            readable: true,
            writable: false,
        }
    }
    fn w(offset: u32, name: &'static str) -> MmioReg {
        MmioReg {
            offset,
            name,
            readable: false,
            writable: true,
        }
    }
    fn rw(offset: u32, name: &'static str) -> MmioReg {
        MmioReg {
            offset,
            name,
            readable: true,
            writable: true,
        }
    }
    vec![
        r(io::RECV_READY, "RECV_READY"),
        r(io::RECV_DESC_LO, "RECV_DESC_LO"),
        r(io::RECV_DESC_DATA, "RECV_DESC_DATA"),
        w(io::RECV_RELEASE, "RECV_RELEASE"),
        w(io::SEND_DESC_LO, "SEND_DESC_LO"),
        w(io::SEND_DESC_DATA, "SEND_DESC_DATA"),
        rw(io::STATUS, "STATUS"),
        w(io::DEBUG_OUT_L, "DEBUG_OUT_L"),
        w(io::DEBUG_OUT_H, "DEBUG_OUT_H"),
        r(io::TIMER_L, "TIMER_L"),
        r(io::TIMER_H, "TIMER_H"),
        w(io::MASKS, "MASKS"),
        r(io::HOST_IN_L, "HOST_IN_L"),
        r(io::HOST_IN_H, "HOST_IN_H"),
        r(io::BCAST_NOTIFY, "BCAST_NOTIFY"),
        r(io::BCAST_FREE, "BCAST_FREE"),
        w(io::TIMER_CMP, "TIMER_CMP"),
        w(io::DMA_HOST_ADDR, "DMA_HOST_ADDR"),
        w(io::DMA_LOCAL_ADDR, "DMA_LOCAL_ADDR"),
        w(io::DMA_LEN, "DMA_LEN"),
        w(io::DMA_CTRL, "DMA_CTRL"),
        r(io::DMA_STATUS, "DMA_STATUS"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud_riscv::{assemble, Analyzer};

    #[test]
    fn spec_matches_the_rpu_bus_dispatch() {
        let spec = machine_spec(&RosebudConfig::with_rpus(1));
        // The strict IO window ends exactly where the accelerator window
        // begins, and the accelerator window ends at the broadcast region.
        assert_eq!(spec.io_base + spec.io_window_bytes, spec.accel.base);
        assert_eq!(spec.accel.base + spec.accel.bytes, spec.bcast.base);
        // Every register offset is word-aligned and inside the window.
        for reg in &spec.io_regs {
            assert_eq!(reg.offset % 4, 0, "{}", reg.name);
            assert!(reg.offset < spec.io_window_bytes);
        }
    }

    #[test]
    fn protocol_spec_agrees_with_the_io_table() {
        let spec = machine_spec(&RosebudConfig::with_rpus(1));
        let proto = spec.protocol.clone().expect("protocol table is wired in");
        let dir = |off: u32| {
            let reg = spec
                .io_regs
                .iter()
                .find(|r| r.offset == off)
                .unwrap_or_else(|| panic!("protocol offset 0x{off:02x} not in IO table"));
            (reg.readable, reg.writable)
        };
        // Every automaton register is a real register with the direction
        // the automaton's trigger (load vs. store) requires.
        assert!(dir(proto.recv_ready).0);
        for &d in &proto.recv_desc {
            assert!(dir(d).0);
        }
        assert!(dir(proto.recv_release).1);
        assert!(dir(proto.send_stage).1);
        assert!(dir(proto.send_commit).1);
        for off in [
            proto.dma_host_addr,
            proto.dma_local_addr,
            proto.dma_len,
            proto.dma_ctrl,
        ] {
            assert!(dir(off).1);
        }
        assert!(dir(proto.dma_status).0);
    }

    #[test]
    fn doc_example_forwarder_lints_clean() {
        let spec = machine_spec(&RosebudConfig::with_rpus(1));
        let image = assemble(
            "
            .equ IO, 0x02000000
                li t0, IO
                li t2, 0x01000000
            poll:
                lw a0, 0x00(t0)
                beqz a0, poll
                lw a1, 0x04(t0)
                lw a2, 0x08(t0)
                sw zero, 0x0c(t0)
                xor a1, a1, t2
                sw a1, 0x10(t0)
                sw a2, 0x14(t0)
                j poll
            ",
        )
        .unwrap();
        let report = Analyzer::new(spec).check(&image);
        assert!(!report.has_errors(), "{}", report.render("forwarder"));
    }
}
