//! Software-like debuggability (§3.4, A.7): status registers, the 64-bit
//! debug channel, poke interrupts, breakpoints (`ebreak`), memory dumps,
//! disassembly of a halted RPU — and the §4.3 observability layer: a
//! cycle-stamped trace of a supervised fault-recovery run exported as
//! Perfetto-loadable `trace.json`, plus a per-PC firmware profile.
//!
//! Run with: `cargo run --release --example debugging`

use rosebud::apps::forwarder::watchdog_forwarder_asm;
use rosebud::core::{
    Desc, FaultKind, FaultPlan, Firmware, Harness, HostOp, MemRegion, Rosebud, RosebudConfig,
    RoundRobinLb, RpuIo, RpuProgram, Supervisor, TraceConfig, TraceEvent,
};
use rosebud::net::FixedSizeGen;
use rosebud::riscv::{assemble, disassemble_image, Reg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Firmware that counts packets into its status register, reports the
    // running count on the debug channel, and — on a host poke interrupt —
    // stops at a breakpoint for inspection.
    let firmware = assemble(
        "
        .equ IO, 0x02000000
            li t0, IO
            li t2, 0x01000000
            li s0, 0                 # packet counter
            # take poke interrupts (line 5): set mtvec + mie + mstatus.MIE
            li t3, on_poke
            csrw mtvec, t3
            li t3, 0x20
            csrw mie, t3
            sw t3, 0x2c(t0)          # unmask poke in the interconnect
            csrsi mstatus, 8
        poll:
            lw a0, 0x00(t0)
            beqz a0, poll
            lw a1, 0x04(t0)
            lw a2, 0x08(t0)
            sw zero, 0x0c(t0)
            addi s0, s0, 1
            sw s0, 0x18(t0)          # STATUS = packets handled (host-visible)
            sw s0, 0x1c(t0)          # DEBUG_OUT_L
            sw zero, 0x20(t0)        # DEBUG_OUT_H commits the 64-bit value
            xor a1, a1, t2
            sw a1, 0x10(t0)
            sw a2, 0x14(t0)
            j poll
        on_poke:
            ebreak                   # park for the host debugger
        ",
    )?;

    let sys = Rosebud::builder(RosebudConfig::with_rpus(4))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(firmware.clone()))
        .build()?;
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 10.0);
    h.run(30_000);

    // 1. Status registers: per-RPU progress at a glance.
    println!("status registers (packets handled per RPU):");
    for r in 0..4 {
        println!("  RPU {r}: {}", h.sys.rpu_status(r));
    }

    // 2. The 64-bit debug channel.
    if let Some(value) = h.sys.take_debug(0) {
        println!("debug channel from RPU 0: {value:#x}");
    }

    // 3. Poke RPU 2: its interrupt handler hits `ebreak` and the core halts
    //    — the paper's breakpoint behaviour.
    h.sys.apply(HostOp::Poke { rpu: 2 }).expect("RPU 2 exists");
    h.run(100);
    let rpu2 = &h.sys.rpus()[2];
    println!("\nafter poke: RPU 2 halted = {}", rpu2.is_halted());
    if let Some(cpu) = rpu2.cpu() {
        println!(
            "  pc = {:#010x}, s0 (packet count) = {}",
            cpu.pc(),
            cpu.reg(Reg::parse("s0").unwrap())
        );
    }

    // 4. Dump and disassemble the halted RPU's instruction memory.
    let imem = h.sys.read_rpu_mem(2, MemRegion::Imem, 0, 64);
    let words: Vec<u32> = imem
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    println!("\nfirst instructions of the halted RPU:");
    for (addr, _, text) in disassemble_image(0, &words).into_iter().take(8) {
        println!("  {addr:#06x}: {text}");
    }

    // 5. Dump a slice of packet memory: the host has full visibility.
    let pmem = h.sys.read_rpu_mem(2, MemRegion::Pmem, 0x0f0000, 32);
    println!("\npacket-memory dump @0x0f0000: {:02x?}", &pmem[..16]);

    // Traffic continues on the other RPUs while RPU 2 is parked.
    let before = h.received();
    h.run(10_000);
    println!(
        "\nwhile RPU 2 is parked, the rest forwarded {} more packets",
        h.received() - before
    );

    // 6. The observability layer (§4.3): trace a supervised recovery run
    //    and export it for chrome://tracing / ui.perfetto.dev.
    observability_trace()?;
    Ok(())
}

/// Forwards traffic and, every 64th packet, DMAs the frame header to host
/// DRAM — a telemetry sampler exercising the A.8 "save state to the host"
/// path so the trace contains real DMA transfers.
struct TelemetryForwarder {
    seen: u64,
}

impl Firmware for TelemetryForwarder {
    fn tick(&mut self, io: &mut RpuIo<'_>) {
        if let Some(desc) = io.rx_pop() {
            io.charge(12);
            self.seen += 1;
            if self.seen.is_multiple_of(64) && !io.host_dma_busy() {
                io.host_dma_write(0x1000, io.slot_addr(desc.tag), 64);
            }
            io.send(Desc {
                port: desc.port ^ 1,
                ..desc
            });
        }
    }
}

fn observability_trace() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n=== cycle-stamped trace of a supervised recovery (§3.4 + §4.3) ===");
    let watchdog = assemble(&watchdog_forwarder_asm(64))?;
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(8))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |r| {
            if r == 7 {
                RpuProgram::Native(Box::new(TelemetryForwarder { seen: 0 }))
            } else {
                RpuProgram::Riscv(watchdog.clone())
            }
        })
        .build()?;
    sys.enable_tracing(TraceConfig {
        counter_interval: 4096,
        pc_profile: true,
        max_events: 1 << 21,
    });

    let hang = FaultPlan::new().at(20_000, FaultKind::FirmwareHang { rpu: 3 });
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 60.0).faults(hang);
    let mut sup = Supervisor::new(&h.sys);
    for _ in 0..70_000 {
        h.tick();
        sup.poll(&mut h.sys);
    }

    // Per-PC cycle attribution: where RPU 0's firmware actually spends time.
    if let Some(profile) = h.sys.rpus()[0].pc_profile() {
        let imem = h.sys.read_rpu_mem(0, MemRegion::Imem, 0, 256);
        let words: Vec<u32> = imem
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let listing = disassemble_image(0, &words);
        let mut hot: Vec<(&u32, &u64)> = profile.iter().collect();
        hot.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        println!("hottest firmware PCs on RPU 0:");
        for (pc, cycles) in hot.into_iter().take(5) {
            let text = listing
                .iter()
                .find(|(addr, _, _)| *addr == *pc)
                .map(|(_, _, t)| t.as_str())
                .unwrap_or("<outside imem dump>");
            println!("  {pc:#06x}: {cycles:>8} cycles  {text}");
        }
    }

    let tracer = h.sys.take_tracer().expect("tracing was enabled");
    let (mut lb, mut dma, mut ctr) = (0u64, 0u64, 0u64);
    for (_, ev) in tracer.events() {
        match ev {
            TraceEvent::LbAssign { .. } => lb += 1,
            TraceEvent::DmaStart { .. } | TraceEvent::DmaComplete { .. } => dma += 1,
            TraceEvent::CounterSample { .. } => ctr += 1,
            _ => {}
        }
    }
    println!(
        "traced {} events ({} LB assignments, {} DMA, {} counter samples, {} dropped); \
         the supervisor noted {} steps of its own",
        tracer.events().len(),
        lb,
        dma,
        ctr,
        tracer.dropped_events(),
        sup.steps().len(),
    );
    assert!(
        lb > 0 && dma > 0 && ctr > 0 && !sup.steps().is_empty(),
        "trace and ladder log must cover every class"
    );

    let json = tracer.perfetto_json(h.sys.config().ns_per_cycle());
    std::fs::write("trace.json", &json)?;
    println!(
        "wrote trace.json ({} KiB) — load it in chrome://tracing or ui.perfetto.dev",
        json.len() / 1024
    );
    Ok(())
}
