//! Property tests for the packet-port layer: arbitrary cycle-stamped
//! arrival interleavings are elision-invariant (same output as the
//! un-elided oracle of `tests/kernel_equivalence.rs`), any random live
//! ring session — frames interleaved with host operations, refused ones
//! included — replays bit-exactly from its event log, and `pump`, which
//! offers nothing while the source is not due or the box would refuse
//! everything, accepts exactly what polling until dry every cycle does.

use proptest::prelude::*;
use rosebud::apps::forwarder::{
    build_duty_cycle_forwarding_system, build_forwarding_system, duty_cycle_forwarder_asm,
};
use std::hash::{DefaultHasher, Hash, Hasher};

use rosebud::core::ports::{pump, replay, Device, EventLog};
use rosebud::core::{lb_regs, FaultKind, HostOp, MemRegion, Rosebud, TraceConfig};
use rosebud::kernel::{Cycle, IngressPort, PortClock, StampedIngress};
use rosebud::net::{FixedSizeGen, FlowTrafficGen, GenPort, ImixGen, Packet, TrafficGen};
use rosebud::shell::{RingBackend, Shell};

fn trace_cfg() -> TraceConfig {
    TraceConfig {
        counter_interval: 4096,
        pc_profile: true,
        max_events: 1 << 21,
    }
}

fn traced(mut sys: Rosebud) -> Rosebud {
    sys.enable_tracing(trace_cfg());
    sys
}

/// Runs a fixed arrival schedule through duty-cycled (`wfi` + 300-cycle
/// alarm) forwarders, so arrivals land on sleeping lanes — elided as
/// shipped, or with every lane woken before every tick (`oracle`) — and
/// snapshots every observable output.
fn observe_schedule(oracle: bool, schedule: &[(u64, usize, u8)]) -> (String, String, usize) {
    let mut sys = traced(build_duty_cycle_forwarding_system(8, 300).unwrap());
    let mut source = StampedIngress::new();
    let mut cycle = 0u64;
    for (id, &(gap, size, port)) in schedule.iter().enumerate() {
        cycle += gap;
        source.push_at(cycle, Packet::new(id as u64, vec![0xA5; size], port, cycle));
    }
    source.finish();
    let horizon = cycle + 6_000;
    let mut delivered = 0;
    while sys.now() < horizon {
        pump(&mut sys, &mut source);
        if oracle {
            sys.wake_all();
        }
        sys.tick();
    }
    sys.drain(&mut |_, _| delivered += 1);
    sys.assert_conservation();
    (
        sys.take_tracer().unwrap().compact_text(),
        format!("{:?} {:?}", sys.ledger(), sys.diagnostics()),
        delivered,
    )
}

/// RPUs in the random sessions' box; ops are drawn against two more.
const RPUS: usize = 8;

/// The `n`-th drawn op of a session: arm `kind` aimed at `rpu`, its other
/// fields derived from `value`. The flag says whether the arm names an RPU —
/// and so must be refused when `rpu` is past the end.
fn drawn_op(n: usize, kind: u8, rpu: usize, value: u32) -> (HostOp, bool) {
    let bytes = value.to_le_bytes().to_vec();
    let cycles = u64::from(value % 3_000);
    match kind {
        // Not `FLUSH_RPU`: flushing slots under traffic is a host error the
        // conservation check is there to catch.
        0 => {
            let addr = [lb_regs::ENABLE_LO, lb_regs::ENABLE_HI, 0x40][value as usize % 3];
            (HostOp::LbWrite { addr, value }, false)
        }
        1 => (HostOp::Enable { rpu }, true),
        2 => (HostOp::Disable { rpu }, true),
        3 => (HostOp::Poke { rpu }, true),
        4 => (HostOp::Evict { rpu }, true),
        5 => {
            let value = u64::from(value) << 7;
            (HostOp::WriteDebug { rpu, value }, true)
        }
        6 => {
            let (region, offset) = (MemRegion::Dmem, 0x40 + value as usize % 256);
            let op = HostOp::WriteMem {
                rpu,
                region,
                offset,
                bytes,
            };
            (op, true)
        }
        // One draw in nine starts past the end of host DRAM and is refused.
        7 => {
            let offset = value as usize % (9 << 19);
            (HostOp::WriteHostDram { offset, bytes }, false)
        }
        8 => {
            let frame = vec![value as u8; 64 + value as usize % 300];
            let pkt = Packet::new((1 << 40) + n as u64, frame, 0, 0);
            (HostOp::HostFrame(pkt), false)
        }
        9 => {
            let gated = value.is_multiple_of(2);
            (HostOp::Reload { rpu, gated }, true)
        }
        10 => (HostOp::ForceReload { rpu }, true),
        11 => {
            let image = rosebud::riscv::assemble(&duty_cycle_forwarder_asm(100 + value % 400));
            let image = image.unwrap();
            (HostOp::LoadFirmware { rpu, image }, true)
        }
        _ => match value % 5 {
            0 => (HostOp::Fault(FaultKind::FirmwareHang { rpu }), true),
            1 => (HostOp::Fault(FaultKind::FirmwareCrash { rpu }), true),
            2 => {
                let count = value % 7;
                (
                    HostOp::Fault(FaultKind::CorruptIngress { rpu, count }),
                    true,
                )
            }
            3 => {
                let port = rpu % 3;
                (
                    HostOp::Fault(FaultKind::RxFifoOverflow { port, cycles }),
                    false,
                )
            }
            _ => (HostOp::Fault(FaultKind::HostDmaOutage { cycles }), false),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Any port-order-preserving interleaving of cycle-stamped arrivals
    // produces byte-identical traces, ledgers, and diagnostics with and
    // without core-tick elision: no arrival pattern slips past a wake.
    #[test]
    fn stamped_interleavings_are_elision_invariant(
        schedule in proptest::collection::vec(
            (0u64..60, 64usize..600, 0u8..2),
            1..24,
        ),
    ) {
        let (oracle_trace, oracle_state, oracle_delivered) = observe_schedule(true, &schedule);
        prop_assert!(oracle_delivered > 0, "schedule must deliver something");
        let (trace, state, delivered) = observe_schedule(false, &schedule);
        prop_assert_eq!(&trace, &oracle_trace, "trace diverges from the oracle");
        prop_assert_eq!(&state, &oracle_state, "state diverges from the oracle");
        prop_assert_eq!(delivered, oracle_delivered);
    }

    // Any random live ring session replays bit-exactly from its event log:
    // record on a live shell — frames interleaved with host operations of
    // every arm, some aimed at RPUs the box lacks — replay on a fresh
    // system, and demand the same trace, ledger, and diagnostics. A refused
    // op is not in the log, so the replay matching is also the proof that
    // the refusal changed nothing.
    #[test]
    fn random_ring_sessions_replay_bit_exactly(
        session in proptest::collection::vec(
            (1u64..80, 64usize..600, 0u8..2),
            1..24,
        ),
        ops in proptest::collection::vec(
            (0usize..24, 0u8..13, 0usize..RPUS + 2, any::<u32>()),
            0..16,
        ),
    ) {
        let (backend, peer) = RingBackend::pair();
        let mut shell = Shell::new(traced(build_forwarding_system(RPUS).unwrap()), backend);
        let mut applied = 0;
        for (i, &(gap, size, port)) in session.iter().enumerate() {
            for (n, &(_, kind, rpu, value)) in
                ops.iter().enumerate().filter(|(_, op)| op.0 % session.len() == i)
            {
                let (op, names_rpu) = drawn_op(n, kind, rpu, value);
                let outcome = shell.apply(op);
                prop_assert!(!(names_rpu && rpu >= RPUS && outcome.is_ok()), "no RPU {}", rpu);
                applied += usize::from(outcome.is_ok());
                prop_assert_eq!(shell.log().ops.len(), applied, "only applied ops are logged");
            }
            peer.send(port, vec![0x5A; size]);
            shell.pump(gap);
        }
        shell.pump(6_000);
        shell.sys().assert_conservation();
        prop_assert_eq!(shell.log().events.len(), session.len());

        let log = shell.log().clone();
        prop_assert_eq!(EventLog::parse_text(&log.to_text()).as_ref(), Ok(&log));
        let live_trace = shell.sys().tracer().unwrap().compact_text();
        let live_ledger = shell.sys().ledger();
        let live_diag = format!("{:?}", shell.sys().diagnostics());

        let mut oracle = traced(build_forwarding_system(RPUS).unwrap());
        let delivered = replay(&log, &mut oracle);
        prop_assert_eq!(delivered.len() as u64, shell.forwarded());
        prop_assert_eq!(
            oracle.take_tracer().unwrap().compact_text(),
            live_trace,
            "replay trace diverges from the live run"
        );
        prop_assert_eq!(oracle.ledger(), live_ledger);
        prop_assert_eq!(format!("{:?}", oracle.diagnostics()), live_diag);
    }
}

/// How a run's frames are offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// `pump` as shipped.
    Gated,
    /// The poll-until-dry loop below, every cycle.
    EveryCycle,
    /// The same loop, every lane woken before every tick.
    Oracle,
}

/// A frame as the run saw it: `(cycle, id, port, ts_gen, hash of bytes)`.
type Seen = (Cycle, u64, u8, u64, u64);

fn seen(now: Cycle, pkt: &Packet) -> Seen {
    let mut h = DefaultHasher::new();
    pkt.bytes().hash(&mut h);
    (now, pkt.id, pkt.port, pkt.ts_gen, h.finish())
}

/// `pump` as it was before it asked either edge, kept as the reference:
/// every cycle, poll until the source runs dry and hand refusals back.
fn pump_every_cycle(sys: &mut Rosebud, source: &mut GenPort, accepted: &mut Vec<Seen>) {
    let now = sys.now();
    let mut last_refused = None;
    while let Some(pkt) = source.poll(now) {
        let (id, frame) = (pkt.id, seen(now, &pkt));
        match sys.inject(pkt) {
            Ok(()) => accepted.push(frame),
            Err(pkt) => {
                let stuck = last_refused == Some(id);
                source.give_back(pkt);
                if stuck {
                    break;
                }
                last_refused = Some(id);
            }
        }
    }
}

/// A source that notes every frame it hands out and strikes off every one
/// handed back, so it ends holding exactly what the box accepted.
struct Tap<'a> {
    port: &'a mut GenPort,
    accepted: &'a mut Vec<Seen>,
}

impl IngressPort<Packet> for Tap<'_> {
    fn poll(&mut self, now: Cycle) -> Option<Packet> {
        let pkt = self.port.poll(now)?;
        self.accepted.push(seen(now, &pkt));
        Some(pkt)
    }

    fn give_back(&mut self, pkt: Packet) {
        self.accepted.pop();
        self.port.give_back(pkt);
    }

    fn clock(&self, now: Cycle) -> PortClock {
        self.port.clock(now)
    }

    fn backlog(&self) -> usize {
        self.port.backlog()
    }
}

/// One load shape: a paced generator into an `rpus`-RPU forwarder, an RX
/// FIFO overflow window `(at, port, cycles)`, and a stretch `(at, cycles)`
/// with every RPU disabled.
#[derive(Debug, Clone, Copy)]
struct Load {
    rpus: usize,
    /// 0 fixed size, 1 IMIX, 2 flows.
    gen: u8,
    size: usize,
    gbps: f64,
    overflow: (Cycle, usize, Cycle),
    disabled: (Cycle, Cycle),
    cycles: Cycle,
}

/// Everything a run is judged on: the accepted and delivered frames, the
/// ledger, and the generator's count and backlog.
#[derive(Debug, PartialEq, Eq)]
struct PumpRun {
    accepted: Vec<Seen>,
    delivered: Vec<(Cycle, usize, u64, u64)>,
    ledger: String,
    generated: u64,
    backlog: usize,
}

fn drive(load: Load, driver: Driver) -> PumpRun {
    let mut sys = build_forwarding_system(load.rpus).unwrap();
    let ports = sys.config().num_ports;
    let gen: Box<dyn TrafficGen> = match load.gen {
        0 => Box::new(FixedSizeGen::new(load.size, ports as u8)),
        1 => Box::new(ImixGen::new(ports as u8, load.size as u64)),
        _ => Box::new(FlowTrafficGen::new(256, load.size, 0.01, 7)),
    };
    let mut port = GenPort::per_port(gen, load.gbps, sys.config().ns_per_cycle(), ports);
    let (mut accepted, mut delivered) = (Vec::new(), Vec::new());
    let (at, fifo, cycles) = load.overflow;
    let (off, stretch) = load.disabled;
    while sys.now() < load.cycles {
        let now = sys.now();
        if now == at {
            let port = fifo % ports;
            sys.apply(HostOp::Fault(FaultKind::RxFifoOverflow { port, cycles }))
                .unwrap();
        }
        for rpu in 0..load.rpus {
            if now == off {
                sys.apply(HostOp::Disable { rpu }).unwrap();
            } else if now == off + stretch {
                sys.apply(HostOp::Enable { rpu }).unwrap();
            }
        }
        match driver {
            Driver::Gated => {
                let mut tap = Tap {
                    port: &mut port,
                    accepted: &mut accepted,
                };
                pump(&mut sys, &mut tap);
            }
            Driver::EveryCycle | Driver::Oracle => {
                pump_every_cycle(&mut sys, &mut port, &mut accepted)
            }
        }
        if driver == Driver::Oracle {
            sys.wake_all();
        }
        sys.tick();
        let now = sys.now();
        sys.drain(&mut |lane, pkt| delivered.push((now, lane, pkt.id, seen(now, &pkt).4)));
    }
    sys.assert_conservation();
    PumpRun {
        accepted,
        delivered,
        ledger: format!("{:?}", sys.ledger()),
        generated: port.generated(),
        backlog: port.backlog(),
    }
}

/// Runs `load` under all three drivers and demands one outcome.
fn pump_differential(load: Load) -> Result<(), TestCaseError> {
    let oracle = drive(load, Driver::Oracle);
    prop_assert!(!oracle.accepted.is_empty(), "{:?} accepts nothing", load);
    for driver in [Driver::EveryCycle, Driver::Gated] {
        let run = drive(load, driver);
        prop_assert_eq!(run.accepted.len(), oracle.accepted.len(), "{:?}", driver);
        prop_assert!(
            run == oracle,
            "{:?} diverges from the oracle on {:?}",
            driver,
            load
        );
    }
    Ok(())
}

#[test]
fn gated_pump_equals_polling_every_cycle_through_a_long_closed_stretch() {
    // Saturated 1500-B frames into a box with every RPU disabled for longer
    // than 32 768 cycles: the MAC fills and the gated pump polls nothing
    // until it reopens, except through an overflow window on port 1, whose
    // MAC takes frames to shed them.
    let load = Load {
        rpus: 4,
        gen: 0,
        size: 1500,
        gbps: 205.0,
        overflow: (20_000, 1, 1_500),
        disabled: (6_000, 33_000),
        cycles: 42_000,
    };
    pump_differential(load).unwrap();
}

#[test]
fn gated_pump_equals_polling_every_cycle_across_a_long_quiet_source() {
    // 0.5 Gbps of 4976-B frames over two ports: a lane waits 40 000 cycles
    // per frame, so the source says `NotBefore` across more than 32 768.
    let load = Load {
        rpus: 2,
        gen: 0,
        size: 4976,
        gbps: 0.5,
        overflow: (0, 0, 0),
        disabled: (Cycle::MAX / 2, 0),
        cycles: 85_000,
    };
    pump_differential(load).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Drawn offered loads, frame sizes and generators, an overflow window
    // and a disabled stretch: the gated pump accepts exactly what polling
    // every cycle does, and both match the unelided oracle.
    #[test]
    fn gated_pump_equals_polling_every_cycle(
        rpus in 1usize..5,
        gen in 0u8..3,
        size in 64usize..1_500,
        gbps in 1u32..250,
        overflow in (0u64..3_000, 0usize..2, 1u64..800),
        disabled in (0u64..3_000, 1u64..1_500),
    ) {
        let load = Load {
            rpus,
            gen,
            size,
            gbps: f64::from(gbps),
            overflow,
            disabled,
            cycles: 4_000,
        };
        pump_differential(load)?;
    }
}
