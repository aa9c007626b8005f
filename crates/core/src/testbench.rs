//! Single-RPU simulation (paper §3.3, Appendix A.4).
//!
//! "Rosebud's architecture also supports simulating an entire RPU's
//! operation, with or without the distribution system, avoiding the need to
//! lay out a full design" — the paper provides a cocotb/Python test bench;
//! this is the Rust rendering. Developers link in the accelerator and the
//! firmware they want to test, feed packets directly into the RPU (the
//! distribution subsystem is bypassed), and observe outputs and exact cycle
//! counts — the workflow that produced the paper's "61 cycles for safe TCP
//! packets" simulation numbers (§7.1.4).

use rosebud_accel::Accelerator;
use rosebud_kernel::IngressPort;
use rosebud_net::Packet;
use rosebud_riscv::Image;

use crate::config::RosebudConfig;
use crate::rpu::{Firmware, Rpu};
use crate::types::{Desc, SlotMeta};

/// A packet emitted by the RPU under test.
#[derive(Debug, Clone)]
pub struct TxRecord {
    /// The descriptor as the firmware sent it.
    pub desc: Desc,
    /// Frame bytes read back from packet memory (empty for drops).
    pub bytes: Vec<u8>,
    /// Cycle at which the firmware committed the send.
    pub sent_at: u64,
}

/// Per-packet simulation report from [`RpuTestbench::process_one`].
#[derive(Debug, Clone)]
pub struct PacketReport {
    /// Cycles from descriptor delivery to the (last) send — the number the
    /// paper's single-RPU simulations report per packet.
    pub cycles: u64,
    /// Everything the firmware sent while processing this packet.
    pub outputs: Vec<TxRecord>,
}

/// A bench around a single RPU: deliver packets, step cycles, collect
/// sends, count cycles.
///
/// # Examples
///
/// ```
/// use rosebud_core::{RosebudConfig, RpuTestbench, Desc, Firmware, RpuIo};
/// use rosebud_net::PacketBuilder;
///
/// struct Echo;
/// impl Firmware for Echo {
///     fn tick(&mut self, io: &mut RpuIo<'_>) {
///         if let Some(desc) = io.rx_pop() {
///             io.send(Desc { port: 1, ..desc });
///             io.charge(15);
///         }
///     }
/// }
///
/// let mut tb = RpuTestbench::new(RosebudConfig::with_rpus(4));
/// tb.load_native(Box::new(Echo));
/// let report = tb.process_one(&PacketBuilder::new().tcp(1, 2).pad_to(64).build(), 1000);
/// assert_eq!(report.outputs.len(), 1);
/// assert!(report.cycles <= 20);
/// ```
pub struct RpuTestbench {
    rpu: Rpu,
    now: u64,
    next_slot: u8,
    slots: usize,
    outputs: Vec<TxRecord>,
}

impl std::fmt::Debug for RpuTestbench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpuTestbench")
            .field("now", &self.now)
            .field("outputs", &self.outputs.len())
            .finish()
    }
}

impl RpuTestbench {
    /// Creates a bench around a fresh RPU with `cfg`'s memory geometry.
    pub fn new(cfg: RosebudConfig) -> Self {
        Self {
            rpu: Rpu::new(0, &cfg),
            now: 0,
            next_slot: 0,
            slots: cfg.slots_per_rpu,
            outputs: Vec::new(),
        }
    }

    /// Installs an accelerator (Appendix A.2: "connecting the accelerator
    /// to RPU").
    pub fn set_accelerator(&mut self, accel: Box<dyn Accelerator>) {
        self.rpu.set_accelerator(accel);
    }

    /// Loads assembled firmware and boots the core.
    pub fn load_riscv(&mut self, image: &Image) {
        self.rpu.load_riscv(image);
    }

    /// Installs native firmware and boots it.
    pub fn load_native(&mut self, firmware: Box<dyn Firmware>) {
        self.rpu.load_native(firmware);
    }

    /// The RPU under test (memory dumps, status, CPU state).
    pub fn rpu(&self) -> &Rpu {
        &self.rpu
    }

    /// Turns on per-PC cycle attribution ([`Rpu::pc_profile`]).
    pub fn enable_profiling(&mut self) {
        self.rpu.enable_profiling();
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Delivers a packet straight into the RPU's DMA (distribution system
    /// bypassed), assigning the next free slot round-robin. Returns the
    /// slot, or `None` when the receive queue is full.
    pub fn deliver(&mut self, pkt: &Packet) -> Option<u8> {
        let slot = self.next_slot;
        self.next_slot = (self.next_slot + 1) % self.slots as u8;
        let meta = SlotMeta {
            packet_id: pkt.id,
            ts_gen: self.now,
            ingress_port: pkt.port,
            orig_len: pkt.len() as u32,
        };
        self.rpu
            .inner_mut()
            .dma_deliver(slot, pkt.bytes().to_vec(), meta)
            .then_some(slot)
    }

    /// Delivers every frame `source` has due at the current cycle, stopping
    /// when the receive queue refuses one (it goes back to the port and is
    /// re-offered on the next feed). Returns how many frames were
    /// delivered. This is the bench-scale pump: the same port that drives a
    /// full system replays into a single bare RPU.
    pub fn feed(&mut self, source: &mut dyn IngressPort<Packet>) -> usize {
        let mut delivered = 0;
        while let Some(pkt) = source.poll(self.now) {
            if self.deliver(&pkt).is_some() {
                delivered += 1;
            } else {
                source.give_back(pkt);
                break;
            }
        }
        delivered
    }

    /// Advances `cycles` clock cycles, collecting firmware sends.
    pub fn step(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.rpu.tick(self.now);
            while let Some((desc, bytes, _meta)) = self.rpu.inner_mut().take_tx() {
                self.outputs.push(TxRecord {
                    desc,
                    bytes,
                    sent_at: self.now,
                });
            }
            self.now += 1;
        }
    }

    /// Steps until the firmware and accelerator are idle, or `max` cycles.
    /// Returns `true` when idle was reached.
    pub fn run_until_idle(&mut self, max: u64) -> bool {
        for _ in 0..max {
            if self.rpu.is_drained() {
                return true;
            }
            self.step(1);
        }
        self.rpu.is_drained()
    }

    /// Everything sent so far.
    pub fn outputs(&self) -> &[TxRecord] {
        &self.outputs
    }

    /// Delivers one packet and runs until the firmware finishes with it (or
    /// `max_cycles` pass), reporting the cycle count and outputs — the
    /// per-packet simulation measurement of §7.1.4.
    ///
    /// # Panics
    ///
    /// Panics if the receive queue is full (deliver single packets to an
    /// idle bench).
    pub fn process_one(&mut self, pkt: &Packet, max_cycles: u64) -> PacketReport {
        let before = self.outputs.len();
        let start = self.now;
        self.deliver(pkt).expect("testbench rx queue full");
        let mut last_send = self.now;
        for _ in 0..max_cycles {
            self.step(1);
            if self.outputs.len() > before {
                last_send = self.outputs.last().expect("just pushed").sent_at;
                if self.rpu.is_drained() {
                    break;
                }
            }
        }
        PacketReport {
            cycles: last_send.saturating_sub(start),
            outputs: self.outputs[before..].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud_net::PacketBuilder;
    use rosebud_riscv::assemble;

    #[test]
    fn riscv_forwarder_measured_at_16_cycles_steady_state() {
        let image = assemble(
            "
            .equ IO, 0x02000000
                li t0, IO
                li t1, 0x00800000
                li t2, 0x01000000
            poll:
                lw a0, 0x00(t0)
                beqz a0, poll
                lw a1, 0x04(t0)
                lw a2, 0x08(t0)
                sw a1, 0(t1)
                sw a2, 4(t1)
                sw zero, 0x0c(t0)
                xor a1, a1, t2
                sw a1, 0x10(t0)
                sw a2, 0x14(t0)
                j poll
            ",
        )
        .unwrap();
        let mut tb = RpuTestbench::new(RosebudConfig::with_rpus(4));
        tb.load_riscv(&image);
        tb.step(100); // boot + settle into the poll loop
                      // Back-to-back packets: steady state is 16 cycles each.
        let pkt = PacketBuilder::new().tcp(1, 2).pad_to(64).build();
        for _ in 0..8 {
            tb.deliver(&pkt).unwrap();
        }
        tb.step(400);
        let sends: Vec<u64> = tb.outputs().iter().map(|o| o.sent_at).collect();
        assert_eq!(sends.len(), 8);
        let gaps: Vec<u64> = sends.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.iter().all(|&g| g == 16),
            "steady-state forwarder gaps {gaps:?}, expected 16 cycles"
        );
    }

    #[test]
    fn process_one_reports_outputs_and_cycles() {
        struct DoubleSend;
        impl Firmware for DoubleSend {
            fn tick(&mut self, io: &mut crate::rpu::RpuIo<'_>) {
                if let Some(desc) = io.rx_pop() {
                    io.send(Desc { port: 0, ..desc });
                    io.send(Desc {
                        port: crate::types::port::HOST,
                        len: 0,
                        ..desc
                    });
                    io.charge(9);
                }
            }
        }
        let mut tb = RpuTestbench::new(RosebudConfig::with_rpus(4));
        tb.load_native(Box::new(DoubleSend));
        let pkt = PacketBuilder::new().udp(7, 8).pad_to(100).build();
        let report = tb.process_one(&pkt, 100);
        assert_eq!(report.outputs.len(), 2);
        assert!(report.cycles <= 12, "took {} cycles", report.cycles);
        assert_eq!(report.outputs[0].bytes.len(), 100);
        assert!(report.outputs[1].bytes.is_empty());
    }

    #[test]
    fn run_until_idle_detects_quiescence() {
        struct Slow;
        impl Firmware for Slow {
            fn tick(&mut self, io: &mut crate::rpu::RpuIo<'_>) {
                if let Some(desc) = io.rx_pop() {
                    io.charge(50);
                    io.send(desc);
                }
            }
            fn is_idle(&self) -> bool {
                true
            }
        }
        let mut tb = RpuTestbench::new(RosebudConfig::with_rpus(4));
        tb.load_native(Box::new(Slow));
        tb.deliver(&PacketBuilder::new().tcp(1, 2).pad_to(64).build())
            .unwrap();
        assert!(tb.run_until_idle(200));
        assert_eq!(tb.outputs().len(), 1);
    }
}
