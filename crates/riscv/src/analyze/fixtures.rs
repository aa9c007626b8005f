//! Machine specs and helpers shared by the per-module unit tests.

use crate::asm::assemble;
use crate::cpu::CostModel;

pub(super) use super::{
    Analyzer, Check, LintReport, MachineSpec, MmioReg, ProtocolSpec, Region, Severity,
};

pub(super) fn bare() -> Analyzer {
    Analyzer::new(MachineSpec::bare(4096, 65536))
}

/// A miniature RPU-shaped spec for MMIO/watchdog/stack tests.
pub(super) fn devices() -> MachineSpec {
    MachineSpec {
        imem_bytes: 4096,
        dmem: Region {
            base: 0x0080_0000,
            bytes: 0x8000,
        },
        pmem: Region {
            base: 0x0100_0000,
            bytes: 0x10_0000,
        },
        io_base: 0x0200_0000,
        io_window_bytes: 0x100,
        io_regs: vec![
            MmioReg {
                offset: 0x00,
                name: "RECV_READY",
                readable: true,
                writable: false,
            },
            MmioReg {
                offset: 0x0c,
                name: "RECV_RELEASE",
                readable: false,
                writable: true,
            },
            MmioReg {
                offset: 0x40,
                name: "TIMER_CMP",
                readable: false,
                writable: true,
            },
        ],
        accel: Region {
            base: 0x0300_0000,
            bytes: 0x100,
        },
        bcast: Region {
            base: 0x0400_0000,
            bytes: 4096,
        },
        watchdog_pet_offset: Some(0x40),
        stack: Some(Region {
            base: 0x0080_7000,
            bytes: 0x1000,
        }),
        protocol: None,
        cost: CostModel::default(),
        pmem_wait_cycles: 1,
        accel_read_wait_cycles: 2,
    }
}

/// `devices()` plus the full descriptor/DMA protocol table, mirroring
/// the real RPU IO map offsets.
pub(super) fn proto_devices() -> MachineSpec {
    let mut spec = devices();
    spec.io_regs = vec![
        MmioReg {
            offset: 0x00,
            name: "RECV_READY",
            readable: true,
            writable: false,
        },
        MmioReg {
            offset: 0x04,
            name: "RECV_DESC_LO",
            readable: true,
            writable: false,
        },
        MmioReg {
            offset: 0x08,
            name: "RECV_DESC_DATA",
            readable: true,
            writable: false,
        },
        MmioReg {
            offset: 0x0c,
            name: "RECV_RELEASE",
            readable: false,
            writable: true,
        },
        MmioReg {
            offset: 0x10,
            name: "SEND_DESC_LO",
            readable: false,
            writable: true,
        },
        MmioReg {
            offset: 0x14,
            name: "SEND_DESC_DATA",
            readable: false,
            writable: true,
        },
        MmioReg {
            offset: 0x40,
            name: "TIMER_CMP",
            readable: false,
            writable: true,
        },
        MmioReg {
            offset: 0x44,
            name: "DMA_HOST_ADDR",
            readable: false,
            writable: true,
        },
        MmioReg {
            offset: 0x48,
            name: "DMA_LOCAL_ADDR",
            readable: false,
            writable: true,
        },
        MmioReg {
            offset: 0x4c,
            name: "DMA_LEN",
            readable: false,
            writable: true,
        },
        MmioReg {
            offset: 0x50,
            name: "DMA_CTRL",
            readable: false,
            writable: true,
        },
        MmioReg {
            offset: 0x54,
            name: "DMA_STATUS",
            readable: true,
            writable: false,
        },
    ];
    spec.protocol = Some(ProtocolSpec {
        recv_ready: 0x00,
        recv_desc: vec![0x04, 0x08],
        recv_release: 0x0c,
        send_stage: 0x10,
        send_commit: 0x14,
        dma_host_addr: 0x44,
        dma_local_addr: 0x48,
        dma_len: 0x4c,
        dma_ctrl: 0x50,
        dma_status: 0x54,
    });
    spec
}

pub(super) fn check(spec: MachineSpec, asm: &str) -> LintReport {
    Analyzer::new(spec).check(&assemble(asm).unwrap())
}

pub(super) fn has(report: &LintReport, check: Check, sev: Severity) -> bool {
    report
        .diagnostics
        .iter()
        .any(|d| d.check == check && d.severity == sev)
}
