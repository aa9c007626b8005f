//! Integration tests for the inter-RPU messaging subsystem (§4.4) exercised
//! from assembled firmware, heterogeneous RPU processing chains over the
//! loopback module, and the host-DRAM (virtual Ethernet) data path.

use rosebud_core::{
    port, Desc, Firmware, Harness, HostOp, Rosebud, RosebudConfig, RoundRobinLb, RpuIo, RpuProgram,
};
use rosebud_net::{FixedSizeGen, PacketBuilder};
use rosebud_riscv::assemble;

/// Assembled firmware exercising the broadcast region from real RV32 code:
/// RPU 0 writes its timer to the semi-coherent region; every RPU mirrors it.
#[test]
fn riscv_firmware_broadcasts_through_the_semi_coherent_region() {
    let sender = assemble(
        "
        .equ IO,    0x02000000
        .equ BCAST, 0x04000000
            li t0, IO
            li t1, BCAST
        loop:
            lw a0, 0x24(t0)      # TIMER_L
            sw a0, 16(t1)        # broadcast word 4
            # pace: burn some cycles so the outbox never saturates
            li a1, 200
        delay:
            addi a1, a1, -1
            bnez a1, delay
            j loop
        ",
    )
    .unwrap();
    let listener = assemble("spin: j spin").unwrap();
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(4))
        .firmware(move |r| {
            RpuProgram::Riscv(if r == 0 {
                sender.clone()
            } else {
                listener.clone()
            })
        })
        .build()
        .unwrap();
    sys.run(20_000);
    // Every RPU's mirror holds a recent timer value at offset 16.
    for r in 0..4 {
        let rpus = sys.rpus();
        let mirror = rpus[r].inner().bcast_mirror();
        let word = u32::from_le_bytes(mirror[16..20].try_into().unwrap());
        assert!(
            word > 0 && u64::from(word) < 20_000,
            "RPU {r} mirror word {word} not a plausible timestamp"
        );
    }
    assert!(sys.bcast_latency().count() > 10);
}

/// Assembled firmware that *receives* broadcasts via the notification FIFO
/// and accumulates delivered values into its status register.
#[test]
fn riscv_firmware_polls_broadcast_notifications() {
    let sender = assemble(
        "
        .equ BCAST, 0x04000000
            li t1, BCAST
            li a0, 7
            sw a0, 0(t1)         # word 0
            li a0, 35
            sw a0, 4(t1)         # word 1: distinct, so no mirror race
        spin:
            j spin
        ",
    )
    .unwrap();
    let receiver = assemble(
        "
        .equ IO,    0x02000000
        .equ BCAST, 0x04000000
            li t0, IO
            li t1, BCAST
            li s0, 0
        poll:
            lw a0, 0x38(t0)      # BCAST_NOTIFY: offset or 0xffffffff
            li a1, -1
            beq a0, a1, poll
            add a2, a0, t1       # read the delivered word from the mirror
            lw a3, 0(a2)
            add s0, s0, a3
            sw s0, 0x18(t0)      # STATUS = running sum
            j poll
        ",
    )
    .unwrap();
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(move |r| {
            RpuProgram::Riscv(if r == 0 {
                sender.clone()
            } else {
                receiver.clone()
            })
        })
        .build()
        .unwrap();
    sys.run(5_000);
    assert_eq!(
        sys.rpu_status(1),
        42,
        "receiver must sum both delivered broadcast words (7 + 35)"
    );
}

/// A heterogeneous three-stage processing chain over the loopback module
/// (§4.4: "Inter-core packet messaging can also be used to implement a
/// processing chain of heterogeneous RPUs with different accelerators and
/// capabilities"): stage 0 stamps, stage 1 stamps, stage 2 emits.
struct ChainStage {
    stamp: u8,
    next: Option<usize>,
}

impl Firmware for ChainStage {
    fn name(&self) -> &str {
        "chain-stage"
    }

    fn tick(&mut self, io: &mut RpuIo<'_>) {
        if let Some(desc) = io.rx_pop() {
            // Stamp the first payload byte region with this stage's mark.
            let at = desc.data + 54 + u32::from(self.stamp);
            io.pmem_write(at, &[self.stamp]);
            io.charge(20);
            let out_port = match self.next {
                Some(next) => port::LOOPBACK_BASE + next as u8,
                None => 0,
            };
            io.send(Desc {
                port: out_port,
                ..desc
            });
        }
    }
}

#[test]
fn heterogeneous_rpu_chain_over_loopback() {
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(4))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(|r| {
            RpuProgram::Native(Box::new(match r {
                0 => ChainStage {
                    stamp: 1,
                    next: Some(1),
                },
                1 => ChainStage {
                    stamp: 2,
                    next: Some(2),
                },
                _ => ChainStage {
                    stamp: 3,
                    next: None,
                },
            }))
        })
        .build()
        .unwrap();
    // Only stage 0 receives wire traffic.
    sys.apply(HostOp::LbWrite {
        addr: rosebud_core::lb_regs::ENABLE_LO,
        value: 0b0001,
    })
    .unwrap();
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 5.0).keep_output(true);
    h.run(60_000);
    assert!(h.received() > 20, "chain delivered {}", h.received());
    for pkt in h.collected() {
        // All three stamps must be present: bytes 55, 56, 57.
        assert_eq!(pkt.bytes()[55], 1, "stage 0 stamp missing");
        assert_eq!(pkt.bytes()[56], 2, "stage 1 stamp missing");
        assert_eq!(pkt.bytes()[57], 3, "stage 2 stamp missing");
        assert_eq!(pkt.port, 0, "chain exit port");
    }
}

/// The host's virtual Ethernet interface: packets injected from host DRAM
/// traverse the same LB + RPU path and can be returned to the host.
#[test]
fn host_virtual_ethernet_round_trip() {
    struct ToHost;
    impl Firmware for ToHost {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            if let Some(desc) = io.rx_pop() {
                io.charge(10);
                io.send(Desc {
                    port: port::HOST,
                    ..desc
                });
            }
        }
    }
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(4))
        .firmware(|_| RpuProgram::Native(Box::new(ToHost)))
        .build()
        .unwrap();
    for i in 0..20u64 {
        let pkt = PacketBuilder::new().tcp(1, 2).pad_to(200).build_with(i, 0);
        sys.apply(HostOp::HostFrame(pkt)).unwrap();
    }
    sys.run(5_000);
    let back = sys.take_host_packets();
    assert_eq!(back.len(), 20, "all host packets returned over PCIe");
    for pkt in &back {
        assert_eq!(pkt.len(), 200);
    }
}

/// Loopback traffic shares the distribution subsystem without deadlocking
/// when every RPU relays to its neighbour in a ring.
#[test]
fn loopback_ring_makes_progress() {
    struct Ring {
        hops_left_key: u32,
    }
    impl Firmware for Ring {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            if let Some(desc) = io.rx_pop() {
                io.charge(8);
                // Hop counter lives in the packet at a fixed offset.
                let at = desc.data + self.hops_left_key;
                let hops = io.pmem_read(at, 1)[0];
                if hops == 0 {
                    io.send(Desc { port: 0, ..desc });
                } else {
                    io.pmem_write(at, &[hops - 1]);
                    let me = io.rpu_id();
                    let next = (me + 1) % 4;
                    io.send(Desc {
                        port: port::LOOPBACK_BASE + next as u8,
                        ..desc
                    });
                }
            }
        }
    }
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(4))
        .firmware(|_| RpuProgram::Native(Box::new(Ring { hops_left_key: 60 })))
        .build()
        .unwrap();
    sys.apply(HostOp::LbWrite {
        addr: rosebud_core::lb_regs::ENABLE_LO,
        value: 0b0001,
    })
    .unwrap();
    // A packet with 6 hops in its belly.
    let mut pkt = PacketBuilder::new().tcp(9, 9).pad_to(128).build_with(0, 0);
    pkt.bytes_mut()[60] = 6;
    let mut h = Harness::new(sys, Box::new(rosebud_apps_noop::NoopGen), 0.0).keep_output(true);
    h.sys.inject(pkt).unwrap();
    h.run(20_000);
    assert_eq!(h.received(), 1, "ring packet never escaped");
    assert_eq!(h.collected()[0].bytes()[60], 0, "all hops consumed");
}

// Local noop generator (rosebud-core tests cannot depend on rosebud-apps).
mod rosebud_apps_noop {
    #[derive(Debug)]
    pub struct NoopGen;
    impl rosebud_net::TrafficGen for NoopGen {
        fn generate(&mut self, id: u64, ts: u64) -> rosebud_net::Packet {
            rosebud_net::Packet::new(id, vec![0; 60], 0, ts)
        }
        fn next_size(&self) -> usize {
            60
        }
    }
}

/// §4.4 broadcast receive from native firmware: RPU 0 broadcasts two
/// words once; every RPU pops each delivery notification with
/// `RpuIo::bcast_poll`, checks it against its mirror with
/// `RpuIo::bcast_read`, and publishes the running sum in its status
/// register.
#[test]
fn native_firmware_receives_broadcasts() {
    struct Listener {
        sent: bool,
        sum: u32,
    }
    impl Firmware for Listener {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            if io.rpu_id() == 0 && !std::mem::replace(&mut self.sent, true) {
                io.broadcast(0, 7);
                io.broadcast(4, 35);
            }
            while let Some((offset, value)) = io.bcast_poll() {
                assert_eq!(io.bcast_read(offset), value, "mirror at {offset:#x}");
                self.sum += value;
            }
            io.set_status(self.sum);
        }
    }
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(3))
        .firmware(|_| {
            RpuProgram::Native(Box::new(Listener {
                sent: false,
                sum: 0,
            }))
        })
        .build()
        .unwrap();
    sys.run(2_000);
    for rpu in 0..3 {
        assert_eq!(
            sys.rpu_status(rpu),
            42,
            "RPU {rpu} must see both broadcast words (7 + 35) exactly once"
        );
    }
}
