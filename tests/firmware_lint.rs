//! The firmware analyzer end to end: every check class catches its bad
//! fixture, every shipped firmware lints clean (snapshotted under
//! `tests/golden/firmware.lint`), the `LoadPolicy::Deny` gate provably
//! blocks a bad image during a live PR reload, and the static WCET bounds
//! are validated against measured per-PC cycle profiles. The JSON form of
//! the same reports is snapshotted under `tests/golden/firmware.lint.json`.
//!
//! Refresh the snapshots after an *intentional* analyzer change with:
//! `UPDATE_GOLDEN=1 cargo test --test firmware_lint`

use std::path::PathBuf;

use rosebud::apps::firewall::{firewall_image, synthetic_blacklist, NoopGen};
use rosebud::apps::forwarder::{forwarder_image, FORWARDER_ASM};
use rosebud::apps::shipped_firmware;
use rosebud::core::{
    machine_spec, Fleet, FleetConfig, Harness, HostOp, LoadPolicy, Rosebud, RosebudBuilder,
    RosebudConfig, RoundRobinLb, RpuProgram, RpuState, TraceConfig,
};
use rosebud::kernel::json::Json;
use rosebud::net::{Packet, PacketBuilder};
use rosebud::riscv::{assemble, Analyzer, Check, LintReport, Severity};

fn analyzer() -> Analyzer {
    Analyzer::new(machine_spec(&RosebudConfig::with_rpus(1)))
}

fn check(src: &str) -> LintReport {
    analyzer().check(&assemble(src).expect("fixture must assemble"))
}

fn has(report: &LintReport, severity: Severity, check: Check) -> bool {
    report
        .diagnostics
        .iter()
        .any(|d| d.severity == severity && d.check == check)
}

// ---------------------------------------------------------------------------
// One failing fixture per check class.
// ---------------------------------------------------------------------------

#[test]
fn reading_a_write_only_register_is_an_mmio_error() {
    // SEND_DESC_LO (0x10) is write-only: the bus returns 0 and the firmware
    // silently forwards garbage. The analyzer turns that into an error.
    let report = check(
        "
            li t0, 0x02000000
        spin:
            lw a0, 0x10(t0)
            j spin
        ",
    );
    assert!(
        has(&report, Severity::Error, Check::Mmio),
        "{}",
        report.render("fixture")
    );
}

#[test]
fn writing_a_read_only_register_is_an_mmio_error() {
    // RECV_READY (0x00) is read-only: the store vanishes on real hardware.
    let report = check(
        "
            li t0, 0x02000000
            sw zero, 0x00(t0)
        spin:
            wfi
            j spin
        ",
    );
    assert!(
        has(&report, Severity::Error, Check::Mmio),
        "{}",
        report.render("fixture")
    );
}

#[test]
fn touching_an_unmapped_address_is_a_region_error() {
    // Nothing lives at 0x0500_0000: no RAM, no IO window, no accelerator.
    let report = check(
        "
            li t0, 0x05000000
            lw a0, 0(t0)
        spin:
            wfi
            j spin
        ",
    );
    assert!(
        has(&report, Severity::Error, Check::Region),
        "{}",
        report.render("fixture")
    );
}

#[test]
fn a_loop_that_never_pets_the_watchdog_is_flagged() {
    let report = check(
        "
            li t0, 0x02000000
        poll:
            lw a0, 0x00(t0)
            beqz a0, poll
        spin:
            j spin
        ",
    );
    assert!(
        has(&report, Severity::Warning, Check::Watchdog),
        "{}",
        report.render("fixture")
    );
    // The same loop with a TIMER_CMP pet on every path is clean.
    let petted = check(
        "
            li t0, 0x02000000
            li t1, 4096
        poll:
            sw t1, 0x40(t0)
            lw a0, 0x00(t0)
            beqz a0, poll
            j poll
        ",
    );
    assert!(
        !has(&petted, Severity::Warning, Check::Watchdog),
        "{}",
        petted.render("fixture")
    );
}

#[test]
fn using_an_uninitialized_register_is_an_error() {
    // a1 is never written before it feeds an address computation.
    let report = check(
        "
            add a0, a1, a1
        spin:
            wfi
            j spin
        ",
    );
    assert!(
        has(&report, Severity::Error, Check::Uninit),
        "{}",
        report.render("fixture")
    );
}

#[test]
fn escaping_the_stack_region_is_an_error() {
    // Stack is the top 4 KB of DMEM: [0x0080_7000, 0x0080_8000) for the
    // default 32 KB. A push below the base is an underflow.
    let report = check(
        "
            li sp, 0x00807000
            sw zero, -4(sp)
        spin:
            wfi
            j spin
        ",
    );
    assert!(
        has(&report, Severity::Error, Check::Stack),
        "{}",
        report.render("fixture")
    );
    // The same store inside the region is clean.
    let ok = check(
        "
            li sp, 0x00808000
            sw zero, -4(sp)
        spin:
            wfi
            j spin
        ",
    );
    assert!(
        !has(&ok, Severity::Error, Check::Stack),
        "{}",
        ok.render("fixture")
    );
}

#[test]
fn reachable_garbage_is_an_illegal_instruction_error() {
    // Fall-through into a data word that decodes as nothing.
    let report = check(
        "
            nop
            .word 0xffffffff
        ",
    );
    assert!(
        has(&report, Severity::Error, Check::Illegal),
        "{}",
        report.render("fixture")
    );
}

#[test]
fn unreachable_code_is_a_dead_code_warning() {
    let report = check(
        "
        spin:
            j spin
            nop          # unreachable
            nop
        ",
    );
    assert!(
        has(&report, Severity::Warning, Check::Dead),
        "{}",
        report.render("fixture")
    );
}

// ---------------------------------------------------------------------------
// Protocol and taint fixtures: one bad firmware per new check, each denied
// with a CFG-path witness naming the violating PC.
// ---------------------------------------------------------------------------

/// Asserts the report carries an error of `check` whose message mentions
/// `needle`, anchored at a PC with a non-empty CFG-path witness.
fn assert_denied_with_witness(report: &LintReport, check: Check, needle: &str) {
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error && d.check == check && d.message.contains(needle))
        .unwrap_or_else(|| {
            panic!(
                "expected error[{check}] mentioning {needle:?}:\n{}",
                report.render("fixture")
            )
        });
    assert!(
        !d.path.is_empty(),
        "diagnostic at pc 0x{:08x} has no CFG-path witness",
        d.pc
    );
    assert_eq!(
        *d.path.last().unwrap() % 4,
        0,
        "witness path must end at the violating block"
    );
}

#[test]
fn use_after_release_is_denied_with_witness() {
    let report = check(
        "
            li t0, 0x02000000
        poll:
            lw a0, 0x00(t0)          # RECV_READY
            beqz a0, poll
            lw a1, 0x04(t0)          # take the descriptor
            sw zero, 0x0c(t0)        # release the slot...
            lw a2, 0x08(t0)          # ...then read it again
            sw a1, 0x10(t0)
            sw a2, 0x14(t0)
            j poll
        ",
    );
    assert_denied_with_witness(&report, Check::Protocol, "use-after-release");
}

#[test]
fn double_commit_is_denied_with_witness() {
    let report = check(
        "
            li t0, 0x02000000
        poll:
            lw a0, 0x00(t0)
            beqz a0, poll
            lw a1, 0x04(t0)
            lw a2, 0x08(t0)
            sw zero, 0x0c(t0)
            sw a1, 0x10(t0)          # stage
            sw a2, 0x14(t0)          # commit
            sw a2, 0x14(t0)          # commit again: nothing staged
            j poll
        ",
    );
    assert_denied_with_witness(&report, Check::Protocol, "double commit");
}

#[test]
fn tainted_dma_length_is_denied_with_witness() {
    // The DMA length comes straight from a packet-buffer load — an
    // attacker-sized transfer. The sanitized variant is the shipped
    // host-dma forwarder, which lints clean.
    let report = check(TAINTED_DMA_FIRMWARE);
    assert_denied_with_witness(&report, Check::Taint, "DMA transfer length");
}

#[test]
fn unsanitized_indirect_jump_is_denied_with_witness() {
    let report = check(
        "
            li t0, 0x02000000
        poll:
            lw a0, 0x00(t0)
            beqz a0, poll
            lw a1, 0x08(t0)          # descriptor field: packet-influenced
            jr a1                    # dispatch through it, unmasked
        ",
    );
    assert_denied_with_witness(&report, Check::Taint, "indirect jump");
}

#[test]
fn missed_completion_poll_is_denied_with_witness() {
    let report = check(
        "
            li t0, 0x02000000
            li a0, 0x01000000
            li a1, 64
        kick:
            sw zero, 0x44(t0)        # DMA_HOST_ADDR
            sw a0, 0x48(t0)          # DMA_LOCAL_ADDR
            sw a1, 0x4c(t0)          # DMA_LEN
            li a2, 1
            sw a2, 0x50(t0)          # DMA_CTRL: kick...
            sw a2, 0x50(t0)          # ...and kick again, never polling
        spin:
            wfi
            j spin
        ",
    );
    assert_denied_with_witness(&report, Check::Protocol, "completion poll");
}

// ---------------------------------------------------------------------------
// Shipped firmware: zero errors, snapshotted reports.
// ---------------------------------------------------------------------------

#[test]
fn shipped_firmware_has_zero_lint_errors() {
    let analyzer = analyzer();
    for (name, src) in shipped_firmware() {
        let report = analyzer.check(&assemble(&src).unwrap());
        assert!(
            !report.has_errors(),
            "shipped firmware {name} has lint errors:\n{}",
            report.render(name)
        );
    }
}

/// The concatenated lint reports of every shipped firmware, snapshotted —
/// any change to the CFG builder, the abstract domains, the cost model, or
/// the firmware itself shows up here as a readable diff.
#[test]
fn shipped_firmware_lint_reports_match_golden() {
    let analyzer = analyzer();
    let mut text = String::new();
    for (name, src) in shipped_firmware() {
        text.push_str(&analyzer.check(&assemble(&src).unwrap()).render(name));
        text.push('\n');
    }
    assert_golden("firmware.lint", &text);
}

/// The same reports as `cargo run --example lint -- --json` prints them: one
/// JSON array of `LintReport::render_json` objects. Pins the machine-readable
/// form byte for byte.
#[test]
fn shipped_firmware_lint_json_matches_golden() {
    let analyzer = analyzer();
    let mut json = Json::default();
    json.array(|a| {
        for (name, src) in shipped_firmware() {
            analyzer
                .check(&assemble(&src).unwrap())
                .render_json(name, a);
        }
    });
    assert_golden("firmware.lint.json", &format!("{json}\n"));
}

/// Compares `text` with `tests/golden/{name}`, or rewrites the snapshot
/// under `UPDATE_GOLDEN`.
fn assert_golden(name: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test firmware_lint",
            path.display()
        )
    });
    assert_eq!(
        expected, text,
        "lint reports drifted from tests/golden/{name} (refresh \
         intentional changes with UPDATE_GOLDEN=1)"
    );
}

// ---------------------------------------------------------------------------
// LoadPolicy wiring.
// ---------------------------------------------------------------------------

/// Firmware with a definite lint error: it forwards whatever the write-only
/// SEND_DESC_LO register reads back (always zero).
const BAD_FIRMWARE: &str = "
        li t0, 0x02000000
    spin:
        lw a0, 0x10(t0)
        j spin
";

/// Firmware with a taint error: packet bytes flow into `DMA_LEN` with no
/// mask or bounds guard — an attacker sizes the host-DRAM transfer.
const TAINTED_DMA_FIRMWARE: &str = "
        li t0, 0x02000000
        li t1, 0x01000000
    poll:
        lw a0, 0x00(t0)          # RECV_READY
        beqz a0, poll
        lw a1, 0x04(t0)          # take the descriptor
        lw a2, 0(t1)             # length word from the packet body
        sw zero, 0x44(t0)        # DMA_HOST_ADDR
        sw t1, 0x48(t0)          # DMA_LOCAL_ADDR
        sw a2, 0x4c(t0)          # DMA_LEN: attacker-controlled
        li a3, 1
        sw a3, 0x50(t0)          # kick
    wait:
        lw a3, 0x54(t0)
        bnez a3, wait
        sw zero, 0x0c(t0)
        sw a1, 0x10(t0)
        sw a1, 0x14(t0)
        j poll
";

fn forwarder_system(policy: LoadPolicy) -> Result<Rosebud, String> {
    let image = assemble(FORWARDER_ASM).unwrap();
    Rosebud::builder(RosebudConfig::with_rpus(4))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(image.clone()))
        .load_policy(policy)
        .build()
}

#[test]
fn deny_policy_rejects_bad_firmware_at_boot() {
    let bad = assemble(BAD_FIRMWARE).unwrap();
    let err = Rosebud::builder(RosebudConfig::with_rpus(2))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(bad.clone()))
        .load_policy(LoadPolicy::Deny)
        .build()
        .expect_err("a Deny system must refuse bad firmware at boot");
    assert!(err.contains("LoadPolicy::Deny"), "{err}");

    // The same firmware under Warn boots, with the report on record.
    let bad = assemble(BAD_FIRMWARE).unwrap();
    let sys = Rosebud::builder(RosebudConfig::with_rpus(2))
        .load_balancer(Box::new(RoundRobinLb::new()))
        .firmware(move |_| RpuProgram::Riscv(bad.clone()))
        .load_policy(LoadPolicy::Warn)
        .build()
        .expect("Warn must load regardless");
    assert_eq!(sys.lint_log().len(), 2);
    assert!(sys.lint_log().iter().all(|r| !r.denied));
    assert!(sys.lint_log().iter().all(|r| r.report.has_errors()));
    assert!(sys.diagnostics().render().contains("lint: RPU 0"));
}

#[test]
fn deny_policy_blocks_a_bad_image_during_pr_reload() {
    let mut h = Harness::new(
        forwarder_system(LoadPolicy::Deny).unwrap(),
        Box::new(NoopGen),
        0.0,
    );
    assert_eq!(h.sys.lint_log().len(), 4, "boot vets all four lanes");

    // A runtime ruleset push gone wrong: reconfigure RPU 1 with a bad image.
    let bad = assemble(BAD_FIRMWARE).unwrap();
    h.sys.reconfigure_rpu(1, Some(RpuProgram::Riscv(bad)), None);
    let pr = h.sys.config().pr_cycles;
    h.run(pr + 10_000);

    // The bitstream write completed, but the boot never did: the region is
    // still inert in `Reconfiguring`, its LB enable bit stays clear, and the
    // denial is on record. Known-bad firmware never ran a single cycle.
    assert!(
        matches!(h.sys.rpus()[1].state(), RpuState::Reconfiguring { .. }),
        "denied region must stay inert, got {:?}",
        h.sys.rpus()[1].state()
    );
    assert_eq!(
        h.sys.enabled_mask() & 0b10,
        0,
        "LB must not route to the denied region"
    );
    let last = h.sys.lint_log().last().unwrap();
    assert!(last.denied && last.rpu == 1 && last.report.has_errors());
    assert!(last.cycle > 0, "PR-reload vet happens at runtime, not boot");

    // The same reload with a good image completes and re-enables the lane.
    let good = assemble(FORWARDER_ASM).unwrap();
    h.sys
        .reconfigure_rpu(2, Some(RpuProgram::Riscv(good)), None);
    h.run(pr + 10_000);
    assert_eq!(h.sys.rpus()[2].state(), RpuState::Running);
    assert_eq!(h.sys.enabled_mask() & 0b100, 0b100);
    assert!(!h.sys.lint_log().last().unwrap().denied);
}

#[test]
fn deny_policy_blocks_a_bad_host_load() {
    let mut h = Harness::new(
        forwarder_system(LoadPolicy::Deny).unwrap(),
        Box::new(NoopGen),
        0.0,
    );
    let bad = assemble(BAD_FIRMWARE).unwrap();
    h.sys
        .apply(HostOp::LoadFirmware { rpu: 3, image: bad })
        .expect_err("host load of bad firmware must be refused");
    // The lane still runs its original (good) firmware.
    assert_eq!(h.sys.rpus()[3].state(), RpuState::Running);
}

/// An image the box cannot hold, or an RPU it does not have, is a refusal
/// like any other — at boot and on a host load, whatever the lint policy —
/// not a panic.
#[test]
fn unloadable_images_are_refused_whatever_the_policy() {
    let big = assemble(&"nop\n".repeat(10_000)).unwrap(); // 40 000 B > 32 KiB imem
    let boot = big.clone();
    let err = Rosebud::builder(RosebudConfig::with_rpus(2))
        .firmware(move |_| RpuProgram::Riscv(boot.clone()))
        .build()
        .expect_err("an image larger than imem cannot boot");
    assert!(err.contains("does not fit"), "{err}");

    let mut sys = forwarder_system(LoadPolicy::Off).unwrap();
    let good = assemble(FORWARDER_ASM).unwrap();
    let load = |rpu, image| HostOp::LoadFirmware { rpu, image };
    let err = sys.apply(load(99, good)).expect_err("no RPU 99");
    assert!(err.contains("no RPU 99"), "{err}");
    let err = sys.apply(load(0, big)).expect_err("does not fit");
    assert!(err.contains("does not fit"), "{err}");
    assert_eq!(sys.rpus()[0].state(), RpuState::Running);
}

#[test]
fn off_policy_records_nothing() {
    let sys = forwarder_system(LoadPolicy::Off).unwrap();
    assert!(sys.lint_log().is_empty());
}

/// The acceptance drill one level up: a tainted-DMA image pushed over the
/// fleet PR-reload path is provably blocked — the box's lane finishes the
/// bitstream write but never boots, staying inert in `Reconfiguring` with
/// its LB enable bit clear, and the denial (a taint error) is on record.
#[test]
fn fleet_pr_reload_denies_tainted_dma_firmware() {
    // The reload is queued as the box is built: pre-run configuration, like
    // the factory's own firmware.
    let bad = assemble(TAINTED_DMA_FIRMWARE).unwrap();
    let mut fleet = Fleet::new(FleetConfig { boxes: 2 }, move |device| {
        let mut sys = forwarder_system(LoadPolicy::Deny).expect("good boot firmware");
        if device == 0 {
            sys.reconfigure_rpu(1, Some(RpuProgram::Riscv(bad.clone())), None);
        }
        sys
    })
    .unwrap();

    let pr = fleet.sys(0).config().pr_cycles;
    fleet.run(pr + 10_000);

    let sys = fleet.sys(0);
    assert!(
        matches!(sys.rpus()[1].state(), RpuState::Reconfiguring { .. }),
        "denied lane must stay inert, got {:?}",
        sys.rpus()[1].state()
    );
    assert_eq!(
        sys.enabled_mask() & 0b10,
        0,
        "LB must not route to the denied lane"
    );
    let last = sys.lint_log().last().unwrap();
    assert!(last.denied && last.rpu == 1);
    assert!(
        last.report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error
                && d.check == Check::Taint
                && !d.path.is_empty()),
        "the denial must carry the taint error with its witness path:\n{}",
        last.report.render("tainted-dma")
    );
    // The sibling box was never touched and keeps forwarding state intact.
    assert_eq!(fleet.sys(1).enabled_mask() & 0b1111, 0b1111);
}

// ---------------------------------------------------------------------------
// Static WCET vs measured cycles.
// ---------------------------------------------------------------------------

/// Measured average cycles per loop iteration from a per-PC profile: total
/// cycles attributed to loop-body PCs divided by header executions. Sound to
/// compare against the static per-iteration bound because an *average* over
/// iterations can never exceed the worst case. The loop header is a 2-cycle
/// `lw` in both firmwares, so `profile[header] / 2` counts iterations.
fn measured_loop_average(sys: &Rosebud, header: u32) -> f64 {
    let profile = sys.rpus()[0].pc_profile().expect("profiling enabled");
    let header_cycles = *profile.get(&header).expect("loop header executed");
    let iterations = header_cycles / 2;
    let loop_cycles: u64 = profile
        .iter()
        .filter(|(&pc, _)| pc >= header)
        .map(|(_, c)| c)
        .sum();
    loop_cycles as f64 / iterations as f64
}

/// A one-RPU box with 32 slots, for `firmware` to be installed on.
fn one_rpu() -> RosebudBuilder {
    let mut cfg = RosebudConfig::with_rpus(1);
    cfg.slots_per_rpu = 32;
    Rosebud::builder(cfg)
}

/// Builds `builder` traced and per-PC profiled from cycle 0, offers `pkts`
/// back to back (ticking while its ingress refuses one), runs it to cycle
/// `until`, and returns it with the cycle of each packet's last send.
fn burst(builder: RosebudBuilder, pkts: &[&Packet], until: u64) -> (Rosebud, Vec<u64>) {
    let mut sys = builder.build().unwrap();
    sys.enable_tracing(TraceConfig::default());
    for &pkt in pkts {
        let mut pkt = pkt.clone();
        while let Err(back) = sys.inject(pkt) {
            pkt = back;
            sys.tick();
        }
    }
    sys.run(until - sys.now());
    let sent = sys.tracer().unwrap().residencies(0);
    let sends = sent.iter().map(|&(_, tx)| tx.expect("burst must drain"));
    let sends = sends.collect();
    (sys, sends)
}

fn single_loop_bound(report: &LintReport) -> (u32, u64) {
    let entry = &report.wcet[0];
    // Take the outermost (lowest-header) loop bound.
    let lb = entry
        .loops
        .iter()
        .min_by_key(|l| l.header)
        .expect("loop bound");
    (lb.header, lb.cycles_per_iter)
}

#[test]
fn forwarder_wcet_bound_dominates_measured_cycles() {
    let report = analyzer().check(&forwarder_image());
    let (header, bound) = single_loop_bound(&report);
    assert_eq!(bound, 16, "the paper's 16-cycle forwarder loop");

    let pkt = PacketBuilder::new().tcp(4000, 80).pad_to(256).build();
    let fw = one_rpu().firmware(|_| RpuProgram::Riscv(forwarder_image()));
    let (sys, sends) = burst(fw, &[&pkt; 32], 4_100);
    assert_eq!(sends.len(), 32, "burst must drain");
    // The whole profile, exactly: the prologue once, the poll (`lw` +
    // `beqz`) whenever the queue is empty, and the body once per packet.
    let profile: Vec<(u32, u64)> = sys.rpus()[0]
        .pc_profile()
        .expect("profiling enabled")
        .iter()
        .map(|(&pc, &cycles)| (pc, cycles))
        .collect();
    assert_eq!(
        profile,
        [
            (0, 1),
            (4, 1),
            (8, 1),
            (12, 1),
            (16, 1),
            (20, 1),
            (24, 1498),
            (28, 2180),
            (32, 64),
            (36, 64),
            (40, 32),
            (44, 32),
            (48, 32),
            (52, 32),
            (56, 32),
            (60, 32),
            (64, 96),
        ]
    );

    let measured = measured_loop_average(&sys, header);
    assert!(
        bound as f64 >= measured,
        "static bound {bound} < measured average {measured:.2} cycles/iteration"
    );
    // Busy-path check: under back-to-back load the inter-send spacing is one
    // full processing iteration, which must also fit under the bound.
    let spacing = (sends[31] - sends[1]) as f64 / 30.0;
    assert!(
        bound as f64 >= spacing,
        "static bound {bound} < busy spacing {spacing:.2} cycles/packet"
    );
    // §6.1's "16 cycles" between every two sends of the burst.
    let gaps: Vec<u64> = sends.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(gaps, [16; 31], "steady-state forwarder gaps");
    println!(
        "forwarder: static {bound} cycles/iter, measured avg {measured:.2}, \
         busy spacing {spacing:.2}"
    );
}

#[test]
fn firewall_wcet_bound_dominates_measured_cycles() {
    let report = analyzer().check(&firewall_image());
    let (header, bound) = single_loop_bound(&report);

    let blacklist = synthetic_blacklist(64, 7);
    // Mix safe and blacklisted sources so both loop paths execute.
    let safe = PacketBuilder::new()
        .src_ip([240, 1, 2, 3])
        .tcp(1, 80)
        .pad_to(256)
        .build();
    let bad = {
        let mut ip = blacklist[0];
        ip[3] = 200;
        PacketBuilder::new()
            .src_ip(ip)
            .tcp(1, 80)
            .pad_to(256)
            .build()
    };
    let pkts: Vec<&Packet> = (0..32)
        .map(|i| if i % 4 == 0 { &bad } else { &safe })
        .collect();
    let matcher = rosebud::accel::FirewallMatcher::from_prefixes(&blacklist);
    let fw = one_rpu()
        .accelerator(move |_| Box::new(matcher.clone()))
        .firmware(|_| RpuProgram::Riscv(firewall_image()));
    let (sys, sends) = burst(fw, &pkts, 8_100);
    assert_eq!(sends.len(), 32, "burst must drain");

    let measured = measured_loop_average(&sys, header);
    assert!(
        bound as f64 >= measured,
        "static bound {bound} < measured average {measured:.2} cycles/iteration"
    );
    let spacing = (sends[31] - sends[1]) as f64 / 30.0;
    assert!(
        bound as f64 >= spacing,
        "static bound {bound} < busy spacing {spacing:.2} cycles/packet"
    );
    // A safe packet takes 28 cycles, a blacklisted one (every fourth) 31.
    let gaps: Vec<u64> = sends.windows(2).map(|w| w[1] - w[0]).collect();
    let expected: Vec<u64> = (1..32).map(|i| if i % 4 == 0 { 31 } else { 28 }).collect();
    assert_eq!(gaps, expected, "busy gaps, safe and blacklisted");
    println!(
        "firewall: static {bound} cycles/iter, measured avg {measured:.2}, \
         busy spacing {spacing:.2}"
    );
}

/// Every shipped image, word for word, pinned by an FNV-1a hash over its
/// little-endian bytes: the assembler must keep emitting exactly these.
#[test]
fn shipped_images_are_pinned_by_hash() {
    let pins: Vec<(&str, usize, u64)> = shipped_firmware()
        .iter()
        .map(|(name, src)| {
            let image = assemble(src).unwrap();
            let hash = image
                .bytes()
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            (*name, image.words().len(), hash)
        })
        .collect();
    assert_eq!(
        pins,
        [
            ("forwarder", 17, 0xa848_fae2_2d2f_0bba),
            ("forwarder-single-port", 16, 0xf8e3_b9d4_1a76_158f),
            ("watchdog-forwarder", 20, 0x72a7_cc95_2b81_8b71),
            ("duty-cycle-forwarder", 23, 0x6e14_b3db_ffe0_a6ce),
            ("host-dma-forwarder", 38, 0xcce6_6c43_bdd2_4096),
            ("firewall", 33, 0xa9e6_d536_3c29_a127),
            ("pigasus", 102, 0x6ec5_bcd4_4dd7_84b9),
        ]
    );
}
