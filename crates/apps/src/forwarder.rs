//! The `basic_fw` packet forwarder of the framework evaluation (§6.1), and
//! the two-step loopback forwarder used to measure inter-RPU messaging
//! throughput (§6.3).

use rosebud_core::{HostOp, Rosebud, RosebudConfig, RoundRobinLb, RpuProgram};
use rosebud_riscv::{assemble, Image};

/// Assembly source of the forwarder: poll for a descriptor, copy it into a
/// context slot, flip the egress port bit, and send. The hot loop is exactly
/// 16 cycles per packet — "the minimum time for our packet forwarder to read
/// a descriptor and send it back is 16 cycles" (§6.1) — which is what caps
/// 16 RPUs at 250 Mpps and 8 RPUs at 125 Mpps.
pub const FORWARDER_ASM: &str = "
    .equ IO, 0x02000000
        li t0, IO
        li t1, 0x00800000        # descriptor context array in dmem
        li t2, 0x01000000        # XOR mask for the port field (bit 24)
    poll:
        lw a0, 0x00(t0)          # RECV_READY
        beqz a0, poll
        lw a1, 0x04(t0)          # RECV_DESC_LO
        lw a2, 0x08(t0)          # RECV_DESC_DATA
        sw a1, 0(t1)             # copy descriptor into context
        sw a2, 4(t1)
        sw zero, 0x0c(t0)        # RECV_RELEASE
        xor a1, a1, t2           # swap egress port 0 <-> 1
        sw a1, 0x10(t0)          # SEND_DESC_LO
        sw a2, 0x14(t0)          # SEND_DESC_DATA (commit)
        j poll
";

/// The single-port variant for 100 Gbps runs — "For 100 Gbps results, you
/// can update the C code to use single port" (Appendix D): the port byte is
/// cleared so every packet returns on port 0.
pub const FORWARDER_SINGLE_PORT_ASM: &str = "
    .equ IO, 0x02000000
        li t0, IO
        li t1, 0x00800000
    poll:
        lw a0, 0x00(t0)
        beqz a0, poll
        lw a1, 0x04(t0)
        lw a2, 0x08(t0)
        sw a1, 0(t1)
        sw a2, 4(t1)
        sw zero, 0x0c(t0)
        slli a1, a1, 8           # clear the port byte
        srli a1, a1, 8
        sw a1, 0x10(t0)
        sw a2, 0x14(t0)
        j poll
";

/// Assembles the forwarder image.
///
/// # Panics
///
/// Panics only if the embedded source fails to assemble (a build bug).
pub fn forwarder_image() -> Image {
    assemble(FORWARDER_ASM).expect("embedded forwarder must assemble")
}

/// Source of the supervised forwarder: the same hot loop as
/// [`FORWARDER_ASM`], plus a one-shot watchdog pet at the top of every poll
/// iteration (§3.4: "software on the RISC-V can detect the hang using
/// internal timer interrupt"). Healthy firmware keeps pushing the deadline
/// forward, so the watchdog never expires; wedged firmware stops petting and
/// the expiration becomes a host-visible counter the supervisor polls.
///
/// `interval` is the watchdog deadline in cycles. It must comfortably
/// exceed one poll iteration (a few cycles) but stay small enough that
/// detection is prompt; 64 is a reasonable default.
pub fn watchdog_forwarder_asm(interval: u32) -> String {
    format!(
        "
        .equ IO, 0x02000000
            li t0, IO
            li t1, 0x00800000        # descriptor context array in dmem
            li t2, 0x01000000        # XOR mask for the port field (bit 24)
            li t5, {interval}        # watchdog deadline, re-armed per poll
        poll:
            sw t5, 0x40(t0)          # TIMER_CMP: pet the one-shot watchdog
            lw a0, 0x00(t0)          # RECV_READY
            beqz a0, poll
            lw a1, 0x04(t0)          # RECV_DESC_LO
            lw a2, 0x08(t0)          # RECV_DESC_DATA
            sw a1, 0(t1)             # copy descriptor into context
            sw a2, 4(t1)
            sw zero, 0x0c(t0)        # RECV_RELEASE
            xor a1, a1, t2           # swap egress port 0 <-> 1
            sw a1, 0x10(t0)          # SEND_DESC_LO
            sw a2, 0x14(t0)          # SEND_DESC_DATA (commit)
            j poll
        "
    )
}

/// Builds the forwarding system with the watchdog-petting firmware of
/// [`watchdog_forwarder_asm`] on every core — the configuration the
/// self-healing supervisor expects, since hang detection rides on the
/// watchdog expiration counter.
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
pub fn build_watchdog_forwarding_system(rpus: usize, interval: u32) -> Result<Rosebud, String> {
    let image = assemble(&watchdog_forwarder_asm(interval))
        .expect("embedded watchdog forwarder must assemble");
    Rosebud::builder(RosebudConfig::with_rpus(rpus))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
}

/// Source of the duty-cycled forwarder: instead of busy-polling
/// `RECV_READY`, the core arms the one-shot timer as a wake-up alarm and
/// parks in `wfi`. Frames DMA'd into packet memory while the core sleeps
/// accumulate in the descriptor queue; each timer fire wakes the core, which
/// drains every queued descriptor in a burst, re-arms, and parks again.
///
/// Re-arming `TIMER_CMP` acknowledges the pending timer interrupt
/// (`mtimecmp`-style), so the next `wfi` genuinely parks. `mstatus.MIE`
/// stays clear: a pending-and-enabled interrupt resumes `wfi` without
/// trapping, which keeps the firmware handler-free.
///
/// The timer here is an alarm, not a watchdog — every expiry increments the
/// host-visible `watchdog_fires` counter by design, so this firmware must
/// not be paired with a hang-detecting supervisor.
///
/// `interval` is the park duration in cycles; it bounds added per-packet
/// latency and sets the duty cycle. Larger intervals mean longer provably
/// inert stretches, which the simulator's core-tick elision skips
/// wholesale.
pub fn duty_cycle_forwarder_asm(interval: u32) -> String {
    format!(
        "
        .equ IO, 0x02000000
            li t0, IO
            li t1, 0x00800000        # descriptor context array in dmem
            li t2, 0x01000000        # XOR mask for the port field (bit 24)
            li t5, {interval}        # park duration per duty cycle
            li t6, 2                 # enable the timer interrupt line (bit 1)
            csrw mie, t6
        park:
            sw t5, 0x40(t0)          # TIMER_CMP: arm the alarm + ack last fire
            wfi                      # park until the alarm fires
        drain:
            lw a0, 0x00(t0)          # RECV_READY
            beqz a0, park            # queue empty: back to sleep
            lw a1, 0x04(t0)          # RECV_DESC_LO
            lw a2, 0x08(t0)          # RECV_DESC_DATA
            sw a1, 0(t1)             # copy descriptor into context
            sw a2, 4(t1)
            sw zero, 0x0c(t0)        # RECV_RELEASE
            xor a1, a1, t2           # swap egress port 0 <-> 1
            sw a1, 0x10(t0)          # SEND_DESC_LO
            sw a2, 0x14(t0)          # SEND_DESC_DATA (commit)
            j drain
        "
    )
}

/// Builds a forwarding system running the duty-cycled firmware of
/// [`duty_cycle_forwarder_asm`] on every core. The functional behaviour
/// matches [`build_forwarding_system`] (every packet forwarded with its
/// port flipped) with bounded extra latency; the simulation-speed benefit
/// is that parked stretches are provably inert, which core-tick elision
/// skips.
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
pub fn build_duty_cycle_forwarding_system(rpus: usize, interval: u32) -> Result<Rosebud, String> {
    let image = assemble(&duty_cycle_forwarder_asm(interval))
        .expect("embedded duty-cycled forwarder must assemble");
    Rosebud::builder(RosebudConfig::with_rpus(rpus))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
}

/// Builds the §6.1 forwarding system: `rpus` RPUs, round-robin LB, the
/// 16-cycle forwarder on every core.
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
pub fn build_forwarding_system(rpus: usize) -> Result<Rosebud, String> {
    build_forwarding_system_with(RosebudConfig::with_rpus(rpus))
}

/// Builds the single-port 100 Gbps forwarding system of Appendix D.
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
pub fn build_forwarding_system_single_port(rpus: usize) -> Result<Rosebud, String> {
    let image = assemble(FORWARDER_SINGLE_PORT_ASM).expect("embedded forwarder must assemble");
    let mut cfg = RosebudConfig::with_rpus(rpus);
    cfg.num_ports = 1;
    Rosebud::builder(cfg)
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
}

/// Same as [`build_forwarding_system`] with an explicit config.
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
pub fn build_forwarding_system_with(cfg: RosebudConfig) -> Result<Rosebud, String> {
    let image = forwarder_image();
    Rosebud::builder(cfg)
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .build()
}

/// Source for the two-step forwarding firmware of §6.3: the receiving half
/// of the RPUs hand each packet to a partner RPU over the loopback port;
/// the partner returns it to the physical link.
///
/// `partner_port` is the descriptor port targeting the partner
/// (`LOOPBACK_BASE + partner`), or the physical egress policy for the second
/// hop.
fn two_step_asm(first_hop: bool, partner: usize) -> String {
    if first_hop {
        // Receivers: rewrite the port field to LOOPBACK_BASE + partner.
        format!(
            "
            .equ IO, 0x02000000
                li t0, IO
                li t3, {dest}            # loopback destination port value
            poll:
                lw a0, 0x00(t0)
                beqz a0, poll
                lw a1, 0x04(t0)
                lw a2, 0x08(t0)
                sw zero, 0x0c(t0)
                # clear the port byte, then or in the loopback destination
                slli a1, a1, 8
                srli a1, a1, 8
                slli t4, t3, 24
                or a1, a1, t4
                sw a1, 0x10(t0)
                sw a2, 0x14(t0)
                j poll
            ",
            dest = rosebud_core::port::LOOPBACK_BASE as usize + partner,
        )
    } else {
        // Partners: send to physical port (rpu parity picks 0 or 1).
        format!(
            "
            .equ IO, 0x02000000
                li t0, IO
                li t3, {egress}
            poll:
                lw a0, 0x00(t0)
                beqz a0, poll
                lw a1, 0x04(t0)
                lw a2, 0x08(t0)
                sw zero, 0x0c(t0)
                slli a1, a1, 8
                srli a1, a1, 8
                slli t4, t3, 24
                or a1, a1, t4
                sw a1, 0x10(t0)
                sw a2, 0x14(t0)
                j poll
            ",
            egress = partner % 2,
        )
    }
}

/// Builds the §6.3 two-step system: RPUs `0..n/2` receive from the wire and
/// loop each packet to partner `i + n/2`, which returns it to a physical
/// port. Only the receiving half is enabled at the LB.
///
/// # Errors
///
/// Propagates configuration-validation errors from the builder.
///
/// # Panics
///
/// Panics if `rpus` is not even and at least 2.
pub fn build_two_step_system(rpus: usize) -> Result<Rosebud, String> {
    assert!(
        rpus >= 2 && rpus.is_multiple_of(2),
        "two-step needs an even RPU count"
    );
    let half = rpus / 2;
    let mut sys = Rosebud::builder(RosebudConfig::with_rpus(rpus))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |r| {
            let source = if r < half {
                two_step_asm(true, r + half)
            } else {
                two_step_asm(false, r)
            };
            RpuProgram::Riscv(assemble(&source).expect("two-step firmware must assemble"))
        })
        .build()?;
    // "we assigned half of the RPUs to be recipients of the incoming
    // traffic" — disable the partner half at the LB.
    let mask = (1u64 << half) - 1;
    for (addr, value) in [
        (rosebud_core::lb_regs::ENABLE_LO, mask as u32),
        (rosebud_core::lb_regs::ENABLE_HI, (mask >> 32) as u32),
    ] {
        sys.apply(HostOp::LbWrite { addr, value })?;
    }
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud_core::Harness;
    use rosebud_net::FixedSizeGen;

    #[test]
    fn forwarder_image_assembles_small() {
        let image = forwarder_image();
        assert!(image.words().len() < 32, "hot loop should stay tiny");
    }

    #[test]
    fn forwarding_system_swaps_ports() {
        let sys = build_forwarding_system(4).unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(128, 2)), 5.0).keep_output(true);
        h.run(20_000);
        assert!(h.received() > 10);
        for pkt in h.collected() {
            // Generator alternates ports; the forwarder flips them, so both
            // ports appear in output but never unchanged id/port pairs.
            assert!(pkt.port < 2);
        }
    }

    #[test]
    fn watchdog_forwarder_pets_and_never_fires_when_healthy() {
        let sys = build_watchdog_forwarding_system(4, 64).unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(128, 2)), 5.0);
        h.run(20_000);
        assert!(h.received() > 10, "watchdog forwarder must still forward");
        for r in 0..4 {
            assert_eq!(
                h.sys.rpus()[r].watchdog_fires(),
                0,
                "healthy firmware must keep petting the watchdog (RPU {r})"
            );
        }
    }

    #[test]
    fn duty_cycle_forwarder_forwards_between_naps() {
        let sys = build_duty_cycle_forwarding_system(4, 200).unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(128, 2)), 5.0).keep_output(true);
        h.run(40_000);
        assert!(
            h.received() > 10,
            "duty-cycled forwarder delivered {} packets",
            h.received()
        );
        for pkt in h.collected() {
            assert!(pkt.port < 2);
        }
        // The alarm is supposed to fire every interval — parked cores wake
        // on it, so expiries must have accumulated.
        let fires: u64 = (0..4).map(|r| h.sys.rpus()[r].watchdog_fires()).sum();
        assert!(fires > 10, "alarm should fire repeatedly, saw {fires}");
    }

    #[test]
    fn two_step_system_delivers_through_loopback() {
        let sys = build_two_step_system(8).unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 10.0);
        h.run(40_000);
        assert!(
            h.received() > 10,
            "two-step path delivered {} packets",
            h.received()
        );
        // The loopback wire must actually have carried them.
        assert!(h.sys.drop_count() < h.received() / 10);
    }
}
