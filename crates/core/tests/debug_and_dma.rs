//! The §3.4 debugging flows — watchdog hang detection, state dumps to host
//! DRAM — and the host-DRAM DMA manager (§4.2), exercised from both
//! assembled and native firmware.

use rosebud_core::{
    irq, memmap, Desc, Firmware, HostOp, Rosebud, RosebudConfig, RpuFaultKind, RpuIo, RpuProgram,
    Supervisor, SupervisorStep,
};
use rosebud_riscv::assemble;

/// §3.4: "if the packet distribution part of the Rosebud framework hangs,
/// software on the RISC-V can detect the hang using internal timer
/// interrupt, and send its state to the host." Assembled firmware arms the
/// watchdog, deliberately hangs, and the handler reports + breaks.
#[test]
fn watchdog_detects_hang_and_reports_to_host() {
    let image = assemble(
        "
        .equ IO, 0x02000000
            li t0, IO
            # interrupt setup: timer is line 1
            li t3, handler
            csrw mtvec, t3
            li t3, 2
            csrw mie, t3
            csrsi mstatus, 8
            # arm the watchdog: 500 cycles
            li t4, 500
            sw t4, 0x40(t0)      # TIMER_CMP
            li s0, 0xBEEF        # 'state' the handler will dump
        hang:
            j hang               # the simulated distribution hang
        handler:
            sw s0, 0x1c(t0)      # DEBUG_OUT_L = state
            li t5, 0xDEAD
            sw t5, 0x20(t0)      # DEBUG_OUT_H commits
            ebreak               # park for the host
        ",
    )
    .unwrap();
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
        .unwrap();
    sys.run(400);
    assert!(!sys.rpus()[0].is_halted(), "watchdog fired too early");
    sys.run(400);
    assert!(sys.rpus()[0].is_halted(), "watchdog never fired");
    assert_eq!(sys.take_debug(0), Some(0xDEAD_0000_BEEF));
}

#[test]
fn watchdog_can_be_disarmed() {
    let image = assemble(
        "
        .equ IO, 0x02000000
            li t0, IO
            li t3, handler
            csrw mtvec, t3
            li t3, 2
            csrw mie, t3
            csrsi mstatus, 8
            li t4, 300
            sw t4, 0x40(t0)      # arm
            sw zero, 0x40(t0)    # immediately disarm
        spin:
            j spin
        handler:
            ebreak
        ",
    )
    .unwrap();
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
        .unwrap();
    sys.run(2_000);
    assert!(!sys.rpus()[0].is_halted(), "disarmed watchdog still fired");
}

/// Native firmware saving state to host DRAM on eviction (A.8: "send an
/// eviction interrupt to the RISC-V core to instruct it to finish
/// processing the current packets and save the desired state to the host").
#[test]
fn evict_handler_saves_state_to_host_dram() {
    struct Stateful {
        flows_seen: u32,
    }
    impl Firmware for Stateful {
        fn boot(&mut self, io: &mut RpuIo<'_>) {
            io.set_masks(0x30); // enable evict + poke
        }
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            if let Some(desc) = io.rx_pop() {
                self.flows_seen += 1;
                io.charge(10);
                io.send(Desc {
                    port: desc.port ^ 1,
                    ..desc
                });
            }
        }
        fn interrupt(&mut self, line: u8, io: &mut RpuIo<'_>) {
            if line == irq::EVICT {
                // Serialize state into scratch pmem, then DMA it to host
                // DRAM at an address keyed by the RPU id.
                let scratch = memmap::PMEM_BASE + 0x100;
                io.pmem_write(scratch, &self.flows_seen.to_le_bytes());
                io.host_dma_write(0x1000 + io.rpu_id() as u32 * 16, scratch, 4);
                io.charge(40);
            }
        }
    }
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(|_| RpuProgram::Native(Box::new(Stateful { flows_seen: 0 })))
        .build()
        .unwrap();
    // Feed a few packets to RPU 0 only.
    for i in 0..5u64 {
        let pkt = rosebud_net::PacketBuilder::new()
            .tcp(1, 2)
            .pad_to(100)
            .build_with(i, 0);
        sys.inject(pkt).unwrap();
        sys.run(300);
    }
    sys.apply(HostOp::Evict { rpu: 0 }).unwrap();
    sys.run(1_000);
    let saved = u32::from_le_bytes(sys.host_dram()[0x1000..0x1004].try_into().unwrap());
    assert!(
        saved >= 1,
        "evicted RPU saved {saved} flows to host DRAM (expected ≥1)"
    );
}

/// The host prepares a lookup table in DRAM; firmware pulls it down with a
/// DMA read — the runtime-table-initialization path Rosebud added to
/// Pigasus (§7.1.2).
#[test]
fn firmware_dma_reads_host_tables() {
    struct TableLoader {
        loaded: bool,
        verified: Option<bool>,
    }
    impl Firmware for TableLoader {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            if !self.loaded {
                io.host_dma_read(0x2000, memmap::PMEM_BASE + 0x400, 8);
                self.loaded = true;
                return;
            }
            if self.verified.is_none() && !io.host_dma_busy() {
                let got = io.pmem_read(memmap::PMEM_BASE + 0x400, 8).to_vec();
                self.verified = Some(got == [1, 2, 3, 4, 5, 6, 7, 8]);
                io.set_status(if got == [1, 2, 3, 4, 5, 6, 7, 8] {
                    1
                } else {
                    2
                });
            }
        }
    }
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(|_| {
            RpuProgram::Native(Box::new(TableLoader {
                loaded: false,
                verified: None,
            }))
        })
        .build()
        .unwrap();
    sys.apply(HostOp::WriteHostDram {
        offset: 0x2000,
        bytes: vec![1, 2, 3, 4, 5, 6, 7, 8],
    })
    .unwrap();
    sys.run(2_000);
    assert_eq!(sys.rpu_status(0), 1, "table did not round-trip through DMA");
}

/// The same DMA engine driven from assembled firmware over MMIO, with the
/// completion interrupt observed through DMA_STATUS polling.
#[test]
fn riscv_firmware_drives_host_dma_over_mmio() {
    let image = assemble(
        "
        .equ IO,   0x02000000
        .equ PMEM, 0x01000000
            li t0, IO
            li t1, PMEM
            # put a marker word into pmem scratch
            li a0, 0x5AFE5AFE
            sw a0, 64(t1)
            # DMA it to host address 0x3000
            li a1, 0x3000
            sw a1, 0x44(t0)      # DMA_HOST_ADDR
            li a1, PMEM+64
            sw a1, 0x48(t0)      # DMA_LOCAL_ADDR
            li a1, 4
            sw a1, 0x4c(t0)      # DMA_LEN
            li a1, 1
            sw a1, 0x50(t0)      # DMA_CTRL = write to host
        wait:
            lw a2, 0x54(t0)      # DMA_STATUS
            bnez a2, wait
            li a3, 1
            sw a3, 0x18(t0)      # STATUS = done
            ebreak
        ",
    )
    .unwrap();
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
        .unwrap();
    sys.run(2_000);
    assert_eq!(sys.rpu_status(0), 1, "firmware never saw DMA completion");
    let word = u32::from_le_bytes(sys.host_dram()[0x3000..0x3004].try_into().unwrap());
    assert_eq!(word, 0x5AFE_5AFE);
}

/// DMA completion takes PCIe-scale time, not a cycle.
#[test]
fn host_dma_has_pcie_latency() {
    struct OneShot {
        started_at: Option<u64>,
        done_at: Option<u64>,
    }
    impl Firmware for OneShot {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            match (self.started_at, self.done_at) {
                (None, _) => {
                    io.host_dma_write(0, memmap::PMEM_BASE, 64);
                    self.started_at = Some(io.now());
                }
                (Some(_), None) if !io.host_dma_busy() => {
                    self.done_at = Some(io.now());
                    io.set_status(1);
                }
                _ => {}
            }
        }
    }
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(|_| {
            RpuProgram::Native(Box::new(OneShot {
                started_at: None,
                done_at: None,
            }))
        })
        .build()
        .unwrap();
    // One PCIe crossing: half the 1 µs (250-cycle) round trip.
    let pcie = 125;
    let mut done_cycle = None;
    for c in 0..2_000u64 {
        sys.tick();
        if done_cycle.is_none() && sys.rpu_status(0) == 1 {
            done_cycle = Some(c);
        }
    }
    let done = done_cycle.expect("DMA never completed");
    assert!(
        done >= pcie,
        "DMA completed in {done} cycles, faster than PCIe ({pcie})"
    );
}

/// The host loads accelerator-local tables through the A.6 memory path —
/// the third RPU memory of §4.1.
#[test]
fn host_loads_accelerator_local_memory() {
    use rosebud_core::MemRegion;
    let rules = vec![rosebud_accel::Rule::new(1, b"x")];
    let compiled = rosebud_accel::RuleSet::compile(rules);
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .accelerator(move |_| Box::new(rosebud_accel::PigasusMatcher::new(compiled.clone(), 16)))
        .firmware(|_| RpuProgram::Native(Box::new(Idle)))
        .build()
        .unwrap();
    struct Idle;
    impl Firmware for Idle {
        fn tick(&mut self, _io: &mut RpuIo<'_>) {}
    }
    sys.apply(HostOp::WriteMem {
        rpu: 1,
        region: MemRegion::AccelMem,
        offset: 0x40,
        bytes: vec![7u8; 512],
    })
    .unwrap();
    let rpus = sys.rpus();
    let accel = rpus[1].accelerator().unwrap();
    assert_eq!(accel.name(), "pigasus-mpse");
    // AccelMem reads are write-only from the host (readback goes through
    // the DMA engine only when the accelerator is quiescent, §4.1).
    assert!(sys.read_rpu_mem(1, MemRegion::AccelMem, 0, 16).is_empty());
}

/// A.7 / §3.4: "a 64-bit debug channel … in both directions". Native
/// firmware answers every value the host writes with that value plus one,
/// through `RpuIo::debug_in` and `RpuIo::debug_out`; the host writes with
/// `HostOp::WriteDebug` and reads with `take_debug`.
#[test]
fn native_debug_channel_answers_the_host() {
    struct Echo {
        last: u64,
    }
    impl Firmware for Echo {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            let value = io.debug_in();
            if value != self.last {
                self.last = value;
                io.debug_out(value + 1);
            }
        }
    }
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(|_| RpuProgram::Native(Box::new(Echo { last: 0 })))
        .build()
        .unwrap();
    sys.run(100);
    assert_eq!(sys.take_debug(1), None, "nothing written, nothing answered");
    for value in [0x1234_5678_9abc, 7] {
        sys.apply(HostOp::WriteDebug { rpu: 1, value }).unwrap();
        sys.run(100);
        assert_eq!(sys.take_debug(1), Some(value + 1));
        assert_eq!(sys.take_debug(1), None, "a read consumes the value");
        assert_eq!(sys.take_debug(0), None, "RPU 0's channel was not written");
    }
}

/// §3.4 hang detection from native firmware: the core pets its watchdog
/// through `RpuIo::arm_watchdog` until it stops (the simulated hang); the
/// timer fires, and the host monitor reads the expiry as a hung RPU.
#[test]
fn native_watchdog_expiry_is_caught_by_the_supervisor() {
    const HANG_AT: u64 = 20_000;
    struct Petting;
    impl Firmware for Petting {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            if io.rpu_id() != 0 || io.now() < HANG_AT {
                io.arm_watchdog(1_000);
            }
        }
    }
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(|_| RpuProgram::Native(Box::new(Petting)))
        .build()
        .unwrap();
    let mut sup = Supervisor::new(&sys);
    while sys.now() < HANG_AT + 2_000 {
        sup.poll(&mut sys);
        sys.tick();
    }
    assert_eq!(
        sys.rpus()[1].watchdog_fires(),
        0,
        "a petted watchdog stays quiet"
    );
    assert_eq!(sys.rpus()[0].watchdog_fires(), 1);
    let detected: Vec<(usize, SupervisorStep)> = sup
        .steps()
        .iter()
        .filter(|(.., step)| matches!(step, SupervisorStep::Detected(_)))
        .map(|&(_, rpu, step)| (rpu, step))
        .collect();
    assert_eq!(
        detected,
        [(0, SupervisorStep::Detected(RpuFaultKind::Hung))],
        "steps: {:?}",
        sup.steps()
    );
    let (at, ..) = sup.steps()[0];
    assert!(
        at > HANG_AT + 1_000,
        "detected at {at}, before the watchdog expired"
    );
}
