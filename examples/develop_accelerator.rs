//! The Appendix A development workflow, end to end: write a custom
//! accelerator, connect it in an RPU, write the accompanying firmware,
//! simulate a single RPU, then scale to the full load-balanced system —
//! "Rosebud enables a developer to only focus on implementing their
//! middlebox in a single RPU before they scale it to run at line-rate"
//! (§3.2).
//!
//! The custom accelerator here is a payload byte-entropy scorer (a common
//! exfiltration/encryption heuristic): it streams the payload from packet
//! memory at 16 B/cycle and exposes a score over MMIO; the firmware routes
//! high-entropy packets to the host for inspection.
//!
//! Run with: `cargo run --release --example develop_accelerator`

use rosebud::accel::{generate_firewall_verilog, Accelerator, RegRead, ResourceUsage};
use rosebud::core::{
    Desc, Device, Firmware, Harness, Rosebud, RosebudConfig, RoundRobinLb, RpuIo, RpuProgram,
    TraceConfig,
};
use rosebud::net::{FixedSizeGen, Packet, PacketBuilder};

/// Step A.1: the custom accelerator. Counts distinct byte values in the
/// payload as a cheap entropy proxy; hardware-style: streams 16 B/cycle,
/// 2-cycle result latency after the stream ends.
struct EntropyScorer {
    addr: u32,
    len: u32,
    pos: u32,
    seen: [bool; 256],
    distinct: u32,
    done_at: Option<u64>,
    now: u64,
    score: u32,
}

impl EntropyScorer {
    const REG_ADDR: u32 = 0x00;
    const REG_LEN: u32 = 0x04; // writing LEN starts the stream
    const REG_SCORE: u32 = 0x08; // 0xffff_ffff while busy
    const STREAM_BYTES_PER_CYCLE: u32 = 16;

    fn new() -> Self {
        Self {
            addr: 0,
            len: 0,
            pos: 0,
            seen: [false; 256],
            distinct: 0,
            done_at: None,
            now: 0,
            score: 0,
        }
    }
}

impl Accelerator for EntropyScorer {
    fn name(&self) -> &str {
        "entropy-scorer"
    }

    fn read_reg(&mut self, offset: u32) -> RegRead {
        match offset {
            Self::REG_SCORE => match self.done_at {
                Some(at) if self.now >= at => RegRead::fast(self.score),
                Some(at) => RegRead {
                    value: self.score,
                    wait_cycles: (at - self.now) as u32,
                },
                None if self.pos < self.len => RegRead::fast(u32::MAX), // busy
                None => RegRead::fast(self.score),
            },
            _ => RegRead::fast(0),
        }
    }

    fn write_reg(&mut self, offset: u32, value: u32) {
        match offset {
            Self::REG_ADDR => self.addr = value,
            Self::REG_LEN => {
                self.len = value;
                self.pos = 0;
                self.seen = [false; 256];
                self.distinct = 0;
                self.done_at = None;
            }
            _ => {}
        }
    }

    fn tick(&mut self, pmem: &[u8]) {
        self.now += 1;
        if self.pos < self.len {
            let end = (self.pos + Self::STREAM_BYTES_PER_CYCLE).min(self.len);
            for i in self.pos..end {
                if let Some(&b) = pmem.get((self.addr + i) as usize) {
                    if !self.seen[b as usize] {
                        self.seen[b as usize] = true;
                        self.distinct += 1;
                    }
                }
            }
            self.pos = end;
            if self.pos >= self.len {
                // Score: distinct byte values scaled to the payload length.
                self.score = if self.len == 0 {
                    0
                } else {
                    self.distinct * 256 / self.len.min(256)
                };
                self.done_at = Some(self.now + 2);
            }
        }
    }

    fn is_busy(&self) -> bool {
        self.pos < self.len
    }

    fn load_table(&mut self, _offset: u32, _data: &[u8]) {}

    fn reset(&mut self) {
        self.len = 0;
        self.pos = 0;
        self.done_at = None;
    }

    fn resources(&self) -> ResourceUsage {
        ResourceUsage {
            luts: 1200,
            regs: 900,
            bram: 1,
            uram: 0,
            dsp: 1,
        }
    }
}

/// Step A.3: the accompanying firmware — kick the scorer per packet, route
/// by score (native firmware; cycle cost chosen like the Appendix B code).
struct EntropyFirmware {
    threshold: u32,
    pending: Option<Desc>,
}

impl Firmware for EntropyFirmware {
    fn name(&self) -> &str {
        "entropy-router"
    }

    fn tick(&mut self, io: &mut RpuIo<'_>) {
        if let Some(desc) = self.pending {
            let score = io.accel_read(EntropyScorer::REG_SCORE);
            if score == u32::MAX {
                return; // still streaming; poll next cycle
            }
            io.charge(12);
            let out = if score >= self.threshold {
                Desc {
                    port: rosebud::core::port::HOST,
                    ..desc
                }
            } else {
                Desc {
                    port: desc.port ^ 1,
                    ..desc
                }
            };
            io.send(out);
            self.pending = None;
            return;
        }
        if let Some(desc) = io.rx_pop() {
            io.charge(24);
            let payload_off = 54u32.min(desc.len);
            io.accel_write(
                EntropyScorer::REG_ADDR,
                desc.data - rosebud::core::memmap::PMEM_BASE + payload_off,
            );
            io.accel_write(EntropyScorer::REG_LEN, desc.len - payload_off);
            self.pending = Some(desc);
        }
    }

    fn is_idle(&self) -> bool {
        self.pending.is_none()
    }
}

/// Sends one packet through a traced one-RPU box and returns the port it
/// left on with its cycles from descriptor delivery to the firmware's send.
fn process_one(sys: &mut Rosebud, pkt: Packet) -> (usize, u64) {
    sys.inject(pkt).expect("an idle box takes a frame");
    sys.run(1_000);
    let mut port = None;
    sys.drain(&mut |lane, _| port = Some(lane));
    let tracer = sys.tracer().expect("traced box");
    let (delivered, sent) = *tracer.residencies(0).last().expect("delivered");
    let cycles = sent.expect("sent") - delivered;
    (port.expect("one frame out"), cycles)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step A.4: simulate a single RPU before any full-system build — a
    // one-RPU box, read off its trace.
    println!("-- single-RPU simulation (Appendix A.4) --");
    let mut one = Rosebud::builder(RosebudConfig::with_rpus(1))
        .accelerator(|_| Box::new(EntropyScorer::new()))
        .firmware(|_| {
            RpuProgram::Native(Box::new(EntropyFirmware {
                threshold: 180,
                pending: None,
            }))
        })
        .build()?;
    one.enable_tracing(TraceConfig::default());

    let low_entropy = PacketBuilder::new().tcp(1, 2).payload(&[0x41; 400]).build();
    let (port, cycles) = process_one(&mut one, low_entropy);
    println!("low-entropy packet: routed to port {port} in {cycles} cycles");
    assert_ne!(port, usize::from(rosebud::core::port::HOST));

    let random: Vec<u8> = (0..400u32).map(|i| (i * 197 + 13) as u8).collect();
    let high_entropy = PacketBuilder::new().tcp(1, 2).payload(&random).build();
    let (port, cycles) = process_one(&mut one, high_entropy);
    println!("high-entropy packet: routed to port {port} (host) in {cycles} cycles");
    assert_eq!(port, usize::from(rosebud::core::port::HOST));

    // Step A.5 analogue: for generated accelerators the framework can emit
    // the RTL artefact too (the firewall generator of §7.2):
    let verilog = generate_firewall_verilog("blacklist_matcher", &[[192, 0, 2, 0]]);
    println!(
        "\n-- generated Verilog artefact: {} lines (see §7.2) --",
        verilog.lines().count()
    );

    // Step A.6: scale out — same accelerator + firmware in every RPU,
    // behind the load balancer, at 2×100 G.
    println!("\n-- full system: 16 RPUs --");
    let sys = Rosebud::builder(RosebudConfig::with_rpus(16))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .accelerator(|_| Box::new(EntropyScorer::new()))
        .firmware(|_| {
            RpuProgram::Native(Box::new(EntropyFirmware {
                threshold: 180,
                pending: None,
            }))
        })
        .build()?;
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(512, 2)), 150.0);
    h.run(40_000);
    h.begin_window();
    h.run(100_000);
    let m = h.measure();
    println!(
        "zero-padded generator traffic: {:.1} Gbps forwarded, {} sent to host",
        m.gbps,
        h.host_received()
    );
    Ok(())
}
