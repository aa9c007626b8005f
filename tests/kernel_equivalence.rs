//! Elision differential: every scenario here runs twice — as shipped, with
//! core-tick elision skipping provably inert RPUs, and against an
//! *un-elided oracle* that ticks every core every cycle — and the
//! *complete observable output* — the cycle-stamped compact trace, the
//! conservation ledger, the diagnostics snapshot, and the benchmark
//! measurement — must be byte-identical. Any divergence is a missed wake
//! (an event reached a sleeping core without going through
//! `Rosebud::wake_lane`) or a too-large `Rpu::quiet_horizon`.
//!
//! The oracle is one public call, `Rosebud::wake_all` (or `Fleet::wake_all`)
//! before each tick: every lane marked in every occupancy word is the naive
//! reference tick.
//!
//! The scenarios are chosen to stress exactly the mechanisms that could
//! diverge: busy-poll forwarding (a core spinning on an empty queue parks
//! until a delivery or a host op settles it — with a counter sample every
//! cycle and host ops landing at each cycle of the poll period), duty-cycled
//! `wfi` firmware (wake-on-delivery and the timer alarm), cores that sleep on
//! interrupts alone (DMA completion, poke, evict, broadcast, PR reload),
//! firewall injection (host virtual interface + accelerators, which sleep
//! with their lanes while idle: duty-cycled, and parked in the poll loop
//! behind a live shell), the RV32 Pigasus box whose lanes must never park,
//! and chaos runs (faults, supervisor-driven eviction/PR/reload against
//! lanes that may be asleep when the host reaches in).

use rosebud::apps::firewall::{
    build_firewall_system, firewall_trace, synthetic_blacklist, NoopGen, FIREWALL_ASM,
};
use rosebud::apps::forwarder::{
    build_duty_cycle_forwarding_system, build_forwarding_system, build_watchdog_forwarding_system,
};
use rosebud::core::ports::{replay, Device, EventLog};
use rosebud::core::{
    FaultKind, FaultPlan, Harness, HostOp, HostReply, Rosebud, Supervisor, TraceConfig,
};
use rosebud::net::{FixedSizeGen, ImixGen, Packet};
use std::sync::OnceLock;
use std::time::Instant;

/// Which side of the differential a run is.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    /// Every core ticked every cycle: `wake_all` before each tick.
    Oracle,
    /// The system as shipped.
    Elided,
    /// As shipped, with the stage profile on: it must be invisible.
    Profiled,
}

/// The stage profile's clock: wall nanoseconds since first use.
fn wall_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One harness cycle on the given side. The profiled side turns the stage
/// profile on at every 1024th cycle, which also restarts it.
fn tick(h: &mut Harness, side: Side) {
    match side {
        Side::Oracle => h.sys.wake_all(),
        Side::Profiled if h.sys.now().is_multiple_of(1024) => {
            h.sys.profile_stages(Some(wall_ns));
        }
        _ => {}
    }
    h.tick();
}

/// Everything a scenario observably produces.
#[derive(PartialEq)]
struct Observed {
    trace: String,
    ledger: String,
    diagnostics: String,
    measurement: String,
    received: u64,
    injected: u64,
    drops: u64,
}

fn trace_cfg() -> TraceConfig {
    TraceConfig {
        counter_interval: 4096,
        pc_profile: true,
        max_events: 1 << 21,
    }
}

/// Runs `h` for `cycles` on `side`, collecting the full observable
/// output.
fn observe(mut h: Harness, cycles: u64, side: Side) -> Observed {
    h.begin_window();
    for _ in 0..cycles {
        tick(&mut h, side);
    }
    snapshot(h)
}

/// Everything observable about a finished harness run.
fn snapshot(mut h: Harness) -> Observed {
    let m = h.measure();
    Observed {
        trace: h.sys.take_tracer().expect("tracing enabled").compact_text(),
        ledger: format!("{:?}", h.sys.ledger()),
        diagnostics: format!("{:?}", h.sys.diagnostics()),
        measurement: format!("{m:?}"),
        received: h.received(),
        injected: h.injected(),
        drops: h.sys.drop_count(),
    }
}

/// Runs `scenario` on every side and demands identical output: the elided
/// run against the oracle, and the profiled run against the elided one
/// (`stage profile on ≡ off`).
fn differential(scenario: &str, run: impl Fn(Side) -> Observed) {
    let oracle = run(Side::Oracle);
    let elided = run(Side::Elided);
    same(scenario, &elided, &oracle, "elided", "oracle");
    let profiled = run(Side::Profiled);
    same(scenario, &profiled, &elided, "profiled", "unprofiled");
}

/// Demands that `got` equal `want`, pointing at the first diverging trace
/// line when not.
fn same(scenario: &str, got: &Observed, oracle: &Observed, side: &str, against: &str) {
    let scenario = format!("{scenario} ({side} vs {against})");
    if got.trace != oracle.trace {
        for (i, (want, have)) in oracle.trace.lines().zip(got.trace.lines()).enumerate() {
            assert_eq!(want, have, "{scenario}: trace diverges at line {}", i + 1);
        }
        panic!(
            "{scenario}: trace length differs ({} vs {} lines)",
            oracle.trace.lines().count(),
            got.trace.lines().count()
        );
    }
    assert_eq!(got.ledger, oracle.ledger, "{scenario}: ledger");
    assert_eq!(
        got.diagnostics, oracle.diagnostics,
        "{scenario}: diagnostics"
    );
    assert_eq!(
        got.measurement, oracle.measurement,
        "{scenario}: measurement"
    );
    assert_eq!(got.received, oracle.received, "{scenario}: received");
    assert_eq!(got.injected, oracle.injected, "{scenario}: injected");
    assert_eq!(got.drops, oracle.drops, "{scenario}: drops");
    // Non-vacuity: the scenario must actually have produced events. (That
    // lanes actually sleep in `wfi` and in a poll loop, beside an idle
    // accelerator too, and never beside one that must tick every cycle or
    // with a watchdog pet, is pinned in `core::lanes`' unit tests.)
    assert!(
        !oracle.trace.is_empty(),
        "{scenario}: empty trace proves nothing"
    );
}

fn traced(mut sys: Rosebud) -> Rosebud {
    sys.enable_tracing(trace_cfg());
    sys
}

/// Traced without the per-PC profile, which keeps a core from parking in
/// its poll loop: the busy-poll scenarios trace this way.
fn traced_parking(mut sys: Rosebud) -> Rosebud {
    sys.enable_tracing(TraceConfig {
        pc_profile: false,
        ..trace_cfg()
    });
    sys
}

#[test]
fn forwarder_matches_unelided_oracle() {
    differential("forwarder", |side| {
        let sys = traced_parking(build_forwarding_system(8).unwrap());
        observe(
            Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 60.0),
            30_000,
            side,
        )
    });
}

#[test]
fn forwarder_imix_matches_unelided_oracle_across_seeds() {
    for seed in [1u64, 7, 42] {
        differential(&format!("forwarder-imix seed={seed}"), |side| {
            let sys = traced_parking(build_forwarding_system(16).unwrap());
            observe(
                Harness::new(sys, Box::new(ImixGen::new(2, seed)), 120.0),
                25_000,
                side,
            )
        });
    }
}

#[test]
fn duty_cycle_forwarder_matches_unelided_oracle() {
    // The prime elision differential: lanes park in `wfi` between timer
    // alarms, so every delivery to a sleeping lane and every alarm must
    // wake it on exactly the right cycle.
    for seed in [3u64, 19] {
        differential(&format!("duty-cycle seed={seed}"), |side| {
            let sys = traced(build_duty_cycle_forwarding_system(16, 700).unwrap());
            observe(
                Harness::new(sys, Box::new(ImixGen::new(2, seed)), 8.0),
                40_000,
                side,
            )
        });
    }
}

/// Offers `pkt` to the box, ticking on `side` while its ingress refuses it.
fn offer(h: &mut Harness, side: Side, mut pkt: Packet) {
    while let Err(back) = h.sys.inject(pkt) {
        pkt = back;
        tick(h, side);
    }
}

#[test]
fn firewall_matches_unelided_oracle() {
    differential("firewall", |side| {
        let blacklist = synthetic_blacklist(6, 7);
        let sys = traced(build_firewall_system(4, &blacklist).unwrap());
        let trace = firewall_trace(&blacklist, 16, 256);
        let mut h = Harness::new(sys, Box::new(NoopGen), 0.0);
        for pkt in trace {
            offer(&mut h, side, pkt);
            tick(&mut h, side);
        }
        observe(h, 6_000, side)
    });
}

/// The Appendix C firewall loop, duty-cycled: between drains it parks in
/// `wfi` behind a 600-cycle timer alarm instead of polling.
fn duty_cycled_firewall_asm() -> String {
    let poll = "    poll:
        lw a0, 0x00(t0)          # in_pkt_ready()
        beqz a0, poll
";
    let park = "        li s0, 600
        li s1, 2                 # the timer line
        csrw mie, s1
        j poll
    park:
        sw s0, 0x40(t0)          # TIMER_CMP: arm the alarm + ack the last fire
        wfi
    poll:
        lw a0, 0x00(t0)
        beqz a0, park
";
    assert!(
        FIREWALL_ASM.contains(poll),
        "the firewall's poll loop moved"
    );
    FIREWALL_ASM.replace(poll, park)
}

#[test]
fn duty_cycled_firewall_matches_unelided_oracle() {
    // Lanes sleep in `wfi` beside their IP matchers, which are not ticked
    // while they do: every wake brings a matcher forward by the cycles it
    // slept through, and the match read right after must wait exactly as
    // long as on the oracle's matcher, ticked every cycle.
    use rosebud::accel::FirewallMatcher;
    use rosebud::core::{RosebudConfig, RpuProgram};

    differential("duty-cycled-firewall", |side| {
        let blacklist = synthetic_blacklist(24, 3);
        let image = rosebud::riscv::assemble(&duty_cycled_firewall_asm()).unwrap();
        let prefixes = blacklist.clone();
        let sys = Rosebud::builder(RosebudConfig::with_rpus(8))
            .accelerator(move |_| Box::new(FirewallMatcher::from_prefixes(&prefixes)))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap();
        let mut h = Harness::new(traced(sys), Box::new(NoopGen), 0.0);
        h.begin_window();
        for pkt in firewall_trace(&blacklist, 40, 256) {
            offer(&mut h, side, pkt);
            for _ in 0..150 {
                tick(&mut h, side);
            }
        }
        for _ in 0..3_000 {
            tick(&mut h, side);
        }
        if side != Side::Oracle {
            // Whole cycles with every accelerated lane asleep.
            let stats = h.sys.sim_stats();
            assert!(stats.quiet_share() > 0.0, "no lane slept: {stats}");
        }
        snapshot(h)
    });
}

#[test]
fn assembled_pigasus_box_matches_unelided_oracle_and_never_parks() {
    // The RV32 Pigasus loop reads its matcher on every turn, and the
    // matcher keeps the default horizon: its lanes are the ones that must
    // tick every cycle, under attack traffic and idle alike.
    use rosebud::accel::{PigasusMatcher, RuleSet};
    use rosebud::apps::pigasus_asm::PIGASUS_HW_ASM;
    use rosebud::apps::rules::{attack_trace, synthetic_rules};
    use rosebud::core::{RosebudConfig, RoundRobinLb, RpuProgram};

    differential("pigasus-asm", |side| {
        let rules = synthetic_rules(16, 41);
        let mut cfg = RosebudConfig::with_rpus(4);
        cfg.slots_per_rpu = 32;
        let compiled = RuleSet::compile(rules.clone());
        let image = rosebud::riscv::assemble(PIGASUS_HW_ASM).unwrap();
        let sys = Rosebud::builder(cfg)
            .load_balancer(Box::new(RoundRobinLb::new()))
            .accelerator(move |_| Box::new(PigasusMatcher::new(compiled.clone(), 16)))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap();
        let gen = ImixGen::new(2, 17);
        let mut h = Harness::new(traced_parking(sys), Box::new(gen), 10.0);
        h.begin_window();
        for pkt in attack_trace(&rules, 400) {
            offer(&mut h, side, pkt);
            for _ in 0..300 {
                tick(&mut h, side);
            }
        }
        for _ in 0..5_000 {
            tick(&mut h, side);
        }
        let stats = h.sys.sim_stats();
        assert_eq!(stats.parked_share(), 0.0, "{stats}");
        assert_eq!(stats.quiet_share(), 0.0, "{stats}");
        snapshot(h)
    });
}

#[test]
fn chaos_recovery_matches_unelided_oracle_across_seeds() {
    // Faults, supervisor-driven drain/evict/PR/reload, and live IMIX
    // traffic — the host reaches into lanes that may be mid-sleep, so every
    // host-side mutator's wake is on trial here.
    for seed in [11u64, 23] {
        differential(&format!("chaos seed={seed}"), |side| {
            let sys = build_watchdog_forwarding_system(8, 64).unwrap();
            let plan = FaultPlan::new()
                .at(8_000, FaultKind::FirmwareHang { rpu: 3 })
                .at(22_000, FaultKind::FirmwareCrash { rpu: 5 });
            let gen = ImixGen::new(2, seed);
            let mut h = Harness::new(traced(sys), Box::new(gen), 60.0).faults(plan);
            let mut sup = Supervisor::new(&h.sys);
            h.begin_window();
            for _ in 0..60_000 {
                tick(&mut h, side);
                sup.poll(&mut h.sys);
            }
            snapshot(h)
        });
    }
}

#[test]
fn host_pokes_against_sleeping_lanes_match_unelided_oracle() {
    // Direct missed-wake hunt: park a duty-cycled fleet under light load
    // and fire host-side state changes (pokes, broadcast wakes via the
    // debug register, firmware reload) at fixed cycles. Each one must take
    // effect on the same cycle as it does with every core awake.
    differential("host-pokes", |side| {
        let sys = traced(build_duty_cycle_forwarding_system(8, 900).unwrap());
        let mut h = Harness::new(sys, Box::new(ImixGen::new(2, 5)), 4.0);
        h.begin_window();
        for cycle in 0..50_000u64 {
            let op = match cycle {
                10_000 => Some(HostOp::Poke { rpu: 2 }),
                17_500 => Some(HostOp::WriteDebug {
                    rpu: 6,
                    value: 0xdead_beef,
                }),
                25_000 => Some(HostOp::LoadFirmware {
                    rpu: 4,
                    image: rosebud::riscv::assemble(
                        &rosebud::apps::forwarder::duty_cycle_forwarder_asm(300),
                    )
                    .unwrap(),
                }),
                33_000 => Some(HostOp::Poke { rpu: 7 }),
                _ => None,
            };
            if let Some(op) = op {
                h.sys.apply(op).unwrap();
            }
            tick(&mut h, side);
        }
        snapshot(h)
    });
}

#[test]
fn a_host_watchdog_arm_on_a_sleeping_lane_matches_unelided_oracle() {
    // `TIMER_CMP` arms the watchdog `value` cycles from the RPU's clock. A
    // host store there reaches a lane that sleeps in `wfi` between alarms;
    // the lane must arm from the cycle the box is at, not from the one it
    // fell asleep in.
    use rosebud::core::memmap::{io, IO_BASE, PMEM_BASE};
    use rosebud::core::MemRegion;

    differential("host-watchdog-arm", |side| {
        let sys = traced(build_duty_cycle_forwarding_system(4, 900).unwrap());
        let mut h = Harness::new(sys, Box::new(ImixGen::new(2, 9)), 2.0);
        h.begin_window();
        for cycle in 0..20_000u64 {
            if cycle % 2_500 == 1_250 {
                let op = HostOp::WriteMem {
                    rpu: (cycle / 2_500) as usize % 4,
                    region: MemRegion::Pmem,
                    offset: (IO_BASE - PMEM_BASE + io::TIMER_CMP) as usize,
                    bytes: vec![200],
                };
                h.sys.apply(op).unwrap();
            }
            tick(&mut h, side);
        }
        snapshot(h)
    });
}

/// Firmware that sleeps on interrupts alone: it kicks one host-DMA read,
/// parks in `wfi` with the broadcast, DMA, evict and poke lines enabled
/// and no timer armed, and on every wake masks the lines that fired, bumps
/// the wake count in STATUS, and — when poked — broadcasts it. Nothing but
/// the wake under test can end each of its sleeps.
const IRQ_SLEEPER: &str = "
    .equ IO, 0x02000000
        li t0, IO
        li t3, 0x04000000        # broadcast region
        li t1, 0x30
        sw t1, 0x2c(t0)          # MASKS: let evict + poke through
        li t1, 0x35              # bcast, dma, evict, poke
        csrw mie, t1
        li t1, 0x100
        sw t1, 0x44(t0)          # DMA_HOST_ADDR
        li t1, 0x01000000
        sw t1, 0x48(t0)          # DMA_LOCAL_ADDR: packet memory
        li t1, 64
        sw t1, 0x4c(t0)          # DMA_LEN
        li t1, 2
        sw t1, 0x50(t0)          # DMA_CTRL: read from host DRAM
        li s0, 0
    park:
        wfi
        csrr a0, mip
        csrc mie, a0             # each line wakes this core once
        addi s0, s0, 1
        sw s0, 0x18(t0)          # STATUS: wake count
        andi a1, a0, 0x20
        beqz a1, park
        sw s0, 0(t3)             # poked: broadcast to everyone
        j park
    ";

#[test]
fn interrupt_wakes_of_parked_cores_match_unelided_oracle() {
    // The duty-cycled scenarios wake on their own timer, which would paper
    // over a missed wake one period later. These cores have no timer: the
    // DMA-completion interrupt, a host poke, the broadcast it triggers and
    // a host evict are each the only thing that can wake them, so dropping
    // any of those `wake_lane` calls changes the counter samples in the
    // trace and the wake counts in STATUS.
    use rosebud::core::{RosebudConfig, RpuProgram};

    differential("irq-sleepers", |side| {
        let image = rosebud::riscv::assemble(IRQ_SLEEPER).unwrap();
        let sys = Rosebud::builder(RosebudConfig::with_rpus(8))
            .firmware(move |_| RpuProgram::Riscv(image.clone()))
            .build()
            .unwrap();
        let mut h = Harness::new(traced(sys), Box::new(NoopGen), 0.0);
        h.begin_window();
        for cycle in 0..60_000u64 {
            let op = match cycle {
                10_000 => Some(HostOp::Poke { rpu: 2 }),
                20_000 => Some(HostOp::Evict { rpu: 5 }),
                25_000 => Some(HostOp::Reload {
                    rpu: 6,
                    gated: false,
                }),
                _ => None,
            };
            if let Some(op) = op {
                h.sys.apply(op).unwrap();
            }
            tick(&mut h, side);
        }
        let wakes: Vec<u32> = (0..8).map(|r| h.sys.rpu_status(r)).collect();
        assert_eq!(
            wakes,
            [2, 2, 3, 2, 2, 3, 1, 2],
            "DMA + broadcast everywhere, poke on 2, evict on 5; 6 was \
             reloaded and has since seen only its own DMA complete"
        );
        snapshot(h)
    });
}

/// The duty-cycled forwarder, broadcasting its wake count (to word `r`)
/// every time its `period`-cycle timer ends a sleep. Only RPU 0 enables the
/// broadcast line, takes the first broadcast as a wake of its own, then
/// masks it and keeps the cycle of every later wake in STATUS.
fn bcast_sleeper(r: usize, period: u32) -> String {
    let mie = if r == 0 { 0x3 } else { 0x2 };
    format!(
        "
    .equ IO, 0x02000000
        li t0, IO
        li t1, 0x00800000
        li t2, 0x01000000
        li t3, 0x04000000
        addi t3, t3, {word}
        li t5, {period}
        li t6, {mie}
        csrw mie, t6
        li s0, 0
    park:
        sw t5, 0x40(t0)          # TIMER_CMP
        wfi
        csrr a0, mip
        andi a0, a0, 1           # the broadcast line
        beqz a0, woke
        csrc mie, a0
        lw a0, 0x24(t0)          # TIMER_L
        sw a0, 0x18(t0)          # STATUS
    woke:
        addi s0, s0, 1
        sw s0, 0(t3)             # broadcast the wake count
    drain:
        lw a0, 0x00(t0)
        beqz a0, park
        lw a1, 0x04(t0)
        lw a2, 0x08(t0)
        sw a1, 0(t1)
        sw a2, 4(t1)
        sw zero, 0x0c(t0)
        xor a1, a1, t2
        sw a1, 0x10(t0)
        sw a2, 0x14(t0)
        j drain
    ",
        word = 4 * r
    )
}

#[test]
fn broadcasts_after_quiet_stretches_match_unelided_oracle() {
    // Duty-cycled cores leave the box with nothing due for most of its
    // cycles, so the elided side takes them as quiet ticks, which move the
    // broadcast arbiter's grant pointer without visiting an outbox. Each
    // core broadcasts when its timer ends a sleep, so the grant it waits
    // for — and each message's latency — depends on where quiet ticks left
    // the pointer; RPU 0 also wakes on the first delivery and notes when.
    use rosebud::core::{RosebudConfig, RpuProgram};

    differential("bcast-after-quiet", |side| {
        let images: Vec<_> = (0..7)
            .map(|r| rosebud::riscv::assemble(&bcast_sleeper(r, 600 + 173 * r as u32)).unwrap())
            .collect();
        let sys = Rosebud::builder(RosebudConfig::with_rpus(7))
            .firmware(move |r| RpuProgram::Riscv(images[r].clone()))
            .build()
            .unwrap();
        let mut h = Harness::new(traced_parking(sys), Box::new(ImixGen::new(2, 13)), 3.0);
        h.begin_window();
        for _ in 0..40_000 {
            tick(&mut h, side);
        }
        let latency = h.sys.bcast_latency().samples().to_vec();
        assert!(latency.len() > 100, "{} broadcasts", latency.len());
        let status: Vec<u32> = (0..7).map(|r| h.sys.rpu_status(r)).collect();
        assert_ne!(status[0], 0, "RPU 0 took a broadcast wake");
        let mut seen = snapshot(h);
        seen.measurement += &format!(" bcast latency {latency:?} status {status:?}");
        seen
    });
}

/// Which of the five cycles of the forwarder's poll period (`lw` 2 + taken
/// `beqz` 3) a lane starts next, from the pc it started each of the last
/// five with — `None` outside the loop. Phase 0 issues the `lw`.
fn poll_phase(pcs: &[u32]) -> Option<usize> {
    let lw = *pcs.iter().min()?;
    if pcs.len() != 5 || pcs.iter().any(|&pc| pc != lw && pc != lw + 4) {
        return None;
    }
    // pc per phase: lw, beqz (lw's tail), beqz, lw (beqz's tail ×2).
    const AT_BEQZ: [bool; 5] = [false, true, true, false, false];
    (0..5).find(|k| (0..5).all(|i| (pcs[i] == lw + 4) == AT_BEQZ[(k + i + 1) % 5]))
}

#[test]
fn host_ops_at_every_poll_phase_match_unelided_oracle() {
    // Between frames the forwarder spins on an empty `RECV_READY`, and the
    // elided side parks the lane. Every kind of host op that reaches a
    // core lands once at each of the five cycles of its poll period, read
    // off the pc the host sees: the lane must settle to exactly that
    // cycle, and with a counter sample every cycle the trace shows every
    // lane's closed-form counters against the oracle's ticked ones.
    use rosebud::apps::forwarder::FORWARDER_ASM;
    use rosebud::core::{MemRegion, RosebudConfig, RoundRobinLb, RpuProgram};

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        WriteMem,
        WriteDebug,
        MaskedPoke,
        UnmaskedPoke,
        GatedReload,
        ForceReload,
        Hang,
    }
    // Each lane's script: the ops it takes, each at every phase in turn.
    // Odd lanes unmask the poke line at the interconnect, so a poke there
    // raises `mip` under the spinning core (which never enables it).
    let script = |r: usize| -> Vec<(Op, usize)> {
        let each = |ops: &[Op]| -> Vec<(Op, usize)> {
            ops.iter()
                .flat_map(|&op| (0..5).map(move |k| (op, k)))
                .collect()
        };
        match r {
            0 => each(&[Op::WriteMem, Op::WriteDebug, Op::MaskedPoke]),
            1 | 3 | 5 | 7 | 9 => vec![(Op::UnmaskedPoke, r / 2)],
            2 | 4 | 6 | 8 | 10 => {
                let k = r / 2 - 1;
                vec![(Op::GatedReload, k), (Op::ForceReload, k), (Op::Hang, k)]
            }
            _ => Vec::new(),
        }
    };
    let unmasked = FORWARDER_ASM.replace(
        "    poll:",
        "        li t3, 0x20\n        sw t3, 0x2c(t0)          # MASKS: poke\n    poll:",
    );
    let images = [
        rosebud::riscv::assemble(FORWARDER_ASM).unwrap(),
        rosebud::riscv::assemble(&unmasked).unwrap(),
    ];

    differential("poll-phase ops", |side| {
        let mut cfg = RosebudConfig::with_rpus(16);
        cfg.pr_cycles = 2_000;
        let images = images.clone();
        let mut sys = Rosebud::builder(cfg)
            .load_balancer(Box::new(RoundRobinLb::new()))
            .firmware(move |r| RpuProgram::Riscv(images[r % 2].clone()))
            .build()
            .unwrap();
        sys.enable_tracing(TraceConfig {
            counter_interval: 1,
            pc_profile: false,
            max_events: 1 << 22,
        });
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 1.0);
        let mut scripts: Vec<_> = (0..16).map(|r| script(r).into_iter().peekable()).collect();
        let mut not_before = [200u64; 16];
        let mut pcs = vec![Vec::<u32>::new(); 16];
        let mut landed = Vec::new();
        h.begin_window();
        for cycle in 0..9_000u64 {
            for r in 0..16 {
                let Some(&(op, k)) = scripts[r].peek() else {
                    continue;
                };
                if cycle < not_before[r] || poll_phase(&pcs[r]) != Some(k) {
                    continue;
                }
                let host_op = match op {
                    Op::WriteMem => HostOp::WriteMem {
                        rpu: r,
                        region: MemRegion::Dmem,
                        offset: 0x100 + k,
                        bytes: vec![k as u8 + 1],
                    },
                    Op::WriteDebug => HostOp::WriteDebug {
                        rpu: r,
                        value: k as u64,
                    },
                    Op::MaskedPoke | Op::UnmaskedPoke => HostOp::Poke { rpu: r },
                    Op::GatedReload => HostOp::Reload {
                        rpu: r,
                        gated: true,
                    },
                    Op::ForceReload => HostOp::ForceReload { rpu: r },
                    Op::Hang => HostOp::Fault(FaultKind::FirmwareHang { rpu: r }),
                };
                h.sys.apply(host_op).unwrap();
                landed.push((op, k));
                scripts[r].next();
                // Long enough to park again, or to be rewritten and booted.
                not_before[r] = cycle
                    + match op {
                        Op::GatedReload | Op::ForceReload => 3_000,
                        _ => 60,
                    };
            }
            tick(&mut h, side);
            for (r, rpu) in h.sys.rpus().iter().enumerate() {
                let history = &mut pcs[r];
                match rpu.cpu() {
                    Some(cpu) => history.push(cpu.pc()),
                    None => history.clear(),
                }
                if history.len() > 5 {
                    history.remove(0);
                }
            }
        }
        let scripted: usize = (0..16).map(|r| script(r).len()).sum();
        assert_eq!(landed.len(), scripted, "ops landed: {landed:?}");
        snapshot(h)
    });
}

#[test]
fn recorded_live_shell_session_replays_like_the_unelided_oracle() {
    // Record once: a live ring-backed shell serving real frames to
    // duty-cycled forwarders, operated on mid-run through `Shell::apply` —
    // every kind of op lands on lanes that are asleep more often than not,
    // so an arm of `Rosebud::apply` that forgot to wake its lane would take
    // effect a timer period late on the elided side only. Then replay the
    // event log on both sides — the record/replay contract must hold with
    // and without elision. The oracle replays through a device that wakes
    // every lane before every tick.
    use rosebud::core::MemRegion;
    use rosebud::shell::{RingBackend, Shell};

    let factory = || build_duty_cycle_forwarding_system(8, 900).unwrap();
    let image =
        rosebud::riscv::assemble(&rosebud::apps::forwarder::duty_cycle_forwarder_asm(300)).unwrap();
    let mut ops = [
        (3, HostOp::Poke { rpu: 2 }),
        (5, HostOp::Disable { rpu: 1 }),
        (7, HostOp::WriteDebug { rpu: 6, value: 9 }),
        (9, HostOp::LoadFirmware { rpu: 4, image }),
        (11, HostOp::Evict { rpu: 5 }),
        (
            13,
            HostOp::WriteMem {
                rpu: 7,
                region: MemRegion::Dmem,
                offset: 0x40,
                bytes: vec![1, 2, 3, 4],
            },
        ),
        (
            14,
            HostOp::WriteHostDram {
                offset: 0x100,
                bytes: vec![0xAB; 64],
            },
        ),
        (
            15,
            HostOp::Reload {
                rpu: 3,
                gated: true,
            },
        ),
        (17, HostOp::Enable { rpu: 1 }),
        (
            19,
            HostOp::HostFrame(Packet::new(1 << 40, vec![0x77; 96], 0, 0)),
        ),
        (21, HostOp::ForceReload { rpu: 6 }),
        (23, HostOp::Fault(FaultKind::FirmwareHang { rpu: 0 })),
        (
            25,
            HostOp::LbWrite {
                addr: rosebud::core::lb_regs::ENABLE_LO,
                value: 0xb6,
            },
        ),
        (
            27,
            HostOp::Reload {
                rpu: 7,
                gated: false,
            },
        ),
    ]
    .into_iter()
    .peekable();
    let applied = ops.len();

    let (backend, peer) = RingBackend::pair();
    let mut shell = Shell::new(factory(), backend);
    for i in 0..32u64 {
        if let Some((_, op)) = ops.next_if(|(at, _)| *at == i) {
            shell.apply(op).unwrap();
        }
        peer.send((i % 2) as u8, vec![i as u8; 64 + (i as usize * 13) % 400]);
        shell.pump(29);
    }
    shell.pump(4_000);
    let log = shell.log().clone();
    assert_eq!(log.events.len(), 32, "every live frame must be recorded");
    assert_eq!(log.ops.len(), applied, "and every applied op");

    differential("live-shell-replay", |side| {
        let (sys, delivered) = replayed(traced(factory()), &log, side);
        observed_replay(sys, delivered, &log)
    });
}

/// The oracle's device for [`replay`]: the box, with every lane woken
/// before every tick.
struct Unelided(Rosebud);

impl Device for Unelided {
    fn now(&self) -> u64 {
        self.0.now()
    }
    fn ns_per_cycle(&self) -> f64 {
        self.0.ns_per_cycle()
    }
    fn inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        self.0.inject(pkt)
    }
    fn apply(&mut self, op: HostOp) -> Result<HostReply, String> {
        self.0.apply(op)
    }
    fn tick(&mut self) {
        self.0.wake_all();
        self.0.tick();
    }
    fn drain(&mut self, sink: &mut dyn FnMut(usize, Packet)) {
        self.0.drain(sink);
    }
}

/// Replays `log` into `sys` on `side`, returning the box and how many
/// frames it delivered.
fn replayed(mut sys: Rosebud, log: &EventLog, side: Side) -> (Rosebud, usize) {
    let delivered = match side {
        Side::Elided => replay(log, &mut sys).len(),
        Side::Profiled => {
            sys.profile_stages(Some(wall_ns));
            replay(log, &mut sys).len()
        }
        Side::Oracle => {
            let mut oracle = Unelided(sys);
            let delivered = replay(log, &mut oracle).len();
            sys = oracle.0;
            delivered
        }
    };
    (sys, delivered)
}

/// Everything observable about a replayed box.
fn observed_replay(mut sys: Rosebud, delivered: usize, log: &EventLog) -> Observed {
    Observed {
        trace: sys.take_tracer().unwrap().compact_text(),
        ledger: format!("{:?}", sys.ledger()),
        diagnostics: format!("{:?}", sys.diagnostics()),
        measurement: format!("delivered={delivered}"),
        received: delivered as u64,
        injected: log.events.len() as u64,
        drops: sys.drop_count(),
    }
}

/// The parks the spin probe's lanes have ended so far (the third of the
/// `probes=` counts in [`rosebud::core::SimStats`]' line).
fn parks_settled(sys: &Rosebud) -> u64 {
    let line = sys.sim_stats().to_string();
    let probes = line.split("probes=").nth(1).expect("a probes= field");
    let settled = probes.split(['/', ' ']).nth(2).expect("three counts");
    settled.parse().unwrap()
}

#[test]
fn recorded_live_firewall_session_replays_like_the_unelided_oracle() {
    // The live firewall workload's shape: the 16-RPU firewall behind a
    // ring-backed shell, blacklisted and clean frames interleaved, every
    // lane parked in its poll loop beside an idle IP matcher between
    // frames. Three reloads land mid-run on lanes parked that way: each
    // settles the lane, whose matcher catches up before the region is
    // rebuilt around a fresh one. Recorded once, then replayed on every
    // side.
    use rosebud::shell::{RingBackend, Shell};

    let blacklist = synthetic_blacklist(32, 11);
    let factory = || build_firewall_system(16, &blacklist).unwrap();
    let frames = firewall_trace(&blacklist, 64, 256);
    let n = frames.len();
    let mut ops = [
        (
            20,
            HostOp::Reload {
                rpu: 5,
                gated: true,
            },
        ),
        (
            45,
            HostOp::Reload {
                rpu: 9,
                gated: false,
            },
        ),
        (70, HostOp::ForceReload { rpu: 12 }),
    ]
    .into_iter()
    .peekable();
    let applied = ops.len();

    let (backend, peer) = RingBackend::pair();
    let mut shell = Shell::new(traced_parking(factory()), backend);
    for i in 0..n {
        if let Some((_, op)) = ops.next_if(|(at, _)| *at == i) {
            let before = parks_settled(shell.sys());
            shell.apply(op).unwrap();
            let after = parks_settled(shell.sys());
            assert_eq!(after, before + 1, "op at frame {i} lands on a parked lane");
        }
        // Blacklisted and clean frames interleaved: 7 is prime to n.
        let frame = &frames[(i * 7) % n];
        peer.send((i % 2) as u8, frame.data.clone());
        shell.pump(37);
    }
    shell.pump(4_000);
    let log = shell.log().clone();
    assert_eq!(log.events.len(), n, "every live frame must be recorded");
    assert_eq!(log.ops.len(), applied, "and every applied op");

    differential("live-firewall-replay", |side| {
        let (sys, delivered) = replayed(traced_parking(factory()), &log, side);
        if side != Side::Oracle {
            let stats = sys.sim_stats();
            assert!(stats.parked_share() > 0.5, "lanes must park: {stats}");
        }
        observed_replay(sys, delivered, &log)
    });
}

#[test]
fn fleet_failover_matches_unelided_oracle() {
    // The whole rack on trial: a box crash and a brownout drive the fleet
    // ladder (probe misses, ring removal, purge, whole-box reload,
    // probation) while the survivors carry re-steered flows. Every box's
    // compact trace — including the archived trace of the incarnation the
    // reload retired — plus the fleet ladder log, ledger, and measurement
    // must be byte-identical with and without elision.
    use rosebud::core::{Fleet, FleetConfig, FleetSupervisor};

    for seed in [5u64, 31] {
        differential(&format!("fleet-chaos seed={seed}"), |side| {
            let mut fleet = Fleet::new(FleetConfig { boxes: 2 }, |_| {
                build_watchdog_forwarding_system(4, 64).unwrap()
            })
            .unwrap();
            fleet.enable_tracing(trace_cfg());
            let brownout = FaultKind::BoxBrownout {
                device: 0,
                cycles: 4_000,
                factor: 4,
            };
            let plan = FaultPlan::new()
                .at(8_000, FaultKind::BoxCrash { device: 1 })
                .at(30_000, brownout);
            let gen = ImixGen::new(2, seed);
            let mut h = Harness::fleet(fleet, Box::new(gen), 40.0).faults(plan);
            let mut sup = FleetSupervisor::new(&h.sys);
            h.begin_window();
            for _ in 0..60_000 {
                sup.poll(&mut h.sys);
                if side == Side::Oracle {
                    h.sys.wake_all();
                }
                h.tick();
            }
            let m = h.measure();
            let mut trace = String::new();
            for archived in h.sys.archived_traces() {
                trace.push_str(archived);
                trace.push('\n');
            }
            for b in 0..h.sys.num_boxes() {
                trace.push_str(&format!("=== box {b} (live) ===\n"));
                let tracer = h.sys.sys(b).tracer().expect("tracing enabled");
                trace.push_str(&tracer.compact_text());
            }
            trace.push_str("=== fleet ladder ===\n");
            trace.push_str(&sup.log_text());
            let drops = (0..h.sys.num_boxes())
                .map(|b| h.sys.sys(b).drop_count())
                .sum();
            Observed {
                trace,
                ledger: format!("{:?}", h.sys.ledger()),
                diagnostics: h.sys.diagnostics().render(),
                measurement: format!("{m:?}"),
                received: h.received(),
                injected: h.injected(),
                drops,
            }
        });
    }
}
