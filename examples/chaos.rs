//! Chaos engineering against the self-healing supervisor (§3.4, A.8).
//!
//! Eight RPUs forward 64-byte packets at saturation while a scheduled
//! fault plan wedges firmware, crashes a core, corrupts frames on the
//! ingress link, sheds a MAC RX FIFO overflow burst, and takes the host
//! PCIe link down mid-recovery. The supervisor detects each failure from
//! host-visible signals only, walks the recovery ladder (poke → evict +
//! bounded drain → forced PR reload → firmware reboot → LB re-enable),
//! and the packet-conservation ledger proves nothing was lost untracked.
//!
//! Run with: `cargo run --release --example chaos`
//!
//! With `--fleet N` it runs the rack-scale drill instead: N boxes behind a
//! consistent-hashing front LB, one box killed mid-run, the fleet supervisor
//! walking probe → mark-unhealthy → drain → purge → whole-box reload →
//! probation → re-admission while the survivors absorb the re-steered flows.

use rosebud::apps::forwarder::build_watchdog_forwarding_system;
use rosebud::core::{
    Device, FaultKind, FaultPlan, Fleet, FleetConfig, FleetSupervisor, Harness, HostOp, Supervisor,
};
use rosebud::net::{FixedSizeGen, FlowTrafficGen};

fn fleet_main(boxes: usize) -> Result<(), Box<dyn std::error::Error>> {
    let killed = boxes / 2;
    let fleet = Fleet::new(FleetConfig { boxes }, |_| {
        build_watchdog_forwarding_system(4, 64).unwrap()
    })?;
    let load = 15.0 * boxes as f64;
    let mut h = Harness::fleet(
        fleet,
        Box::new(FlowTrafficGen::new(512, 256, 0.0, 11)),
        load,
    );
    let mut sup = FleetSupervisor::new(&h.sys);

    println!(
        "warming up {boxes} boxes (4 watchdog forwarders each) at {load:.0} Gbps aggregate ..."
    );
    let run = |h: &mut Harness<Fleet>, sup: &mut FleetSupervisor, cycles: u64| {
        for _ in 0..cycles {
            sup.poll(&mut h.sys);
            h.tick();
        }
    };
    run(&mut h, &mut sup, 20_000);
    h.begin_window();
    run(&mut h, &mut sup, 20_000);
    let baseline = h.measure();
    println!(
        "baseline: {:.1} Gbps / {:.2} Mpps aggregate\n",
        baseline.gbps, baseline.mpps
    );

    println!("killing box {killed} cold ...");
    h.sys
        .apply(HostOp::Fault(FaultKind::BoxCrash { device: killed }))?;
    let mut reported = 0;
    let mut windows = Vec::new();
    while sup.failovers().is_empty() {
        h.begin_window();
        run(&mut h, &mut sup, 2_000);
        windows.push(h.measure().gbps);
        for (at, device, step) in &sup.steps()[reported..] {
            println!("  [{at:>7}] box {device}: {step}");
        }
        reported = sup.steps().len();
    }

    println!("\ndegraded-throughput timeline (2 000-cycle windows after the kill):");
    for (i, gbps) in windows.iter().enumerate() {
        println!(
            "  window {:>2}: {:>6.1} Gbps ({:>3.0} % of baseline)",
            i,
            gbps,
            100.0 * gbps / baseline.gbps
        );
    }

    let rec = sup.failovers()[0];
    println!(
        "\nfailover complete: detected @{}, drained @{} ({}), {} purged, \
         re-admitted @{} — downtime {} cycles, {} of {} flows re-steered",
        rec.detected_at,
        rec.drained_at,
        if rec.graceful { "clean" } else { "by deadline" },
        rec.packets_purged,
        rec.readmitted_at,
        rec.downtime,
        rec.flows_resteered,
        h.sys.flows_seen(),
    );

    h.begin_window();
    run(&mut h, &mut sup, 20_000);
    let recovered = h.measure();
    println!(
        "re-admitted: {:.1} Gbps aggregate ({:.0} % of baseline)\n",
        recovered.gbps,
        100.0 * recovered.gbps / baseline.gbps
    );

    print!("{}", h.sys.diagnostics().render());
    h.sys.assert_conservation();
    println!("fleet ledger balances — no packet left unaccounted.");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--fleet") {
        let boxes = args
            .get(i + 1)
            .map(|n| n.parse::<usize>())
            .transpose()?
            .unwrap_or(4);
        if boxes < 2 {
            return Err("--fleet needs at least 2 boxes".into());
        }
        return fleet_main(boxes);
    }
    let sys = build_watchdog_forwarding_system(8, 64)?;

    // The schedule: every fault class the injector knows, overlapping.
    let plan = FaultPlan::new()
        .at(40_000, FaultKind::CorruptIngress { rpu: 1, count: 20 })
        .at(50_000, FaultKind::FirmwareHang { rpu: 3 })
        .at(
            55_000,
            FaultKind::RxFifoOverflow {
                port: 0,
                cycles: 2_000,
            },
        )
        .at(60_000, FaultKind::HostDmaOutage { cycles: 8_000 })
        .at(140_000, FaultKind::FirmwareCrash { rpu: 6 });

    let gen = Box::new(FixedSizeGen::new(64, 2));
    let mut h = Harness::new(sys, gen, 205.0).faults(plan.clone());
    let mut sup = Supervisor::new(&h.sys);

    println!("warming up 8 watchdog-petting forwarders at 64 B saturation ...");
    for _ in 0..20_000 {
        h.tick();
        sup.poll(&mut h.sys);
    }
    h.begin_window();
    for _ in 0..20_000 {
        h.tick();
        sup.poll(&mut h.sys);
    }
    println!("baseline: {:.1} Mpps\n", h.measure().mpps);

    println!("unleashing the fault plan (hang, crash, corruption, overflow, PCIe outage) ...");
    let mut reported = 0;
    let mut was_down = false;
    // Two firmware faults are scheduled, so two recoveries must complete.
    while sup.recoveries().len() < 2 || sup.recovering() {
        h.tick();
        sup.poll(&mut h.sys);
        if !h.sys.host_link_up() && !was_down {
            println!("  [PCIe] host link down — supervisor backing off");
            was_down = true;
        } else if h.sys.host_link_up() && was_down {
            println!(
                "  [PCIe] host link restored after {} retries",
                sup.link_retries()
            );
            was_down = false;
        }
        // The host reads when each fault landed off its own plan.
        for ev in sup.recoveries()[reported..]
            .iter()
            .map(|ev| ev.timed(&plan, None))
        {
            println!(
                "  [recovery] RPU {} {}: detected @{} (latency {}), \
                 re-enabled @{} (downtime {}), {} purged, forced: {}",
                ev.rpu,
                ev.kind,
                ev.detected_at,
                ev.detection_latency
                    .map_or_else(|| "n/a".into(), |l| l.to_string()),
                ev.reenabled_at,
                ev.downtime,
                ev.packets_purged,
                ev.forced,
            );
        }
        reported = sup.recoveries().len();
    }

    h.begin_window();
    for _ in 0..20_000 {
        h.tick();
        sup.poll(&mut h.sys);
    }
    println!("\nall regions healthy again: {:.1} Mpps", h.measure().mpps);
    println!("enabled mask: {:#04x}", h.sys.enabled_mask());

    println!(
        "\nconservation ledger: {} in_flight={}",
        h.sys.ledger(),
        h.sys.ledger_in_flight()
    );
    h.sys.assert_conservation();
    println!("ledger balances — no packet left unaccounted.");
    Ok(())
}
