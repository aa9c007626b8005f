//! Golden-trace regression suite: the cycle-stamped event stream of two
//! fixed-seed scenarios — the Fig. 7 forwarder and the §7.2 firewall — is
//! snapshotted under `tests/golden/` and diffed on every run. Any change to
//! LB arbitration, descriptor lifecycle, FIFO behaviour, or counter
//! semantics shows up as a trace diff here before it shows up as a silently
//! different benchmark number. `ladders.log` does the same for every
//! decision the two recovery ladders take in three fixed drills.
//!
//! Refresh the snapshots after an *intentional* behaviour change with:
//! `UPDATE_GOLDEN=1 cargo test --test trace_golden`

use std::path::PathBuf;

use rosebud::apps::firewall::{
    build_firewall_system, firewall_trace, synthetic_blacklist, NoopGen,
};
use rosebud::apps::forwarder::{build_forwarding_system, build_watchdog_forwarding_system};
use rosebud::apps::host_dma::build_host_dma_system;
use rosebud::core::{
    FaultKind, FaultPlan, Fleet, FleetConfig, FleetSupervisor, Harness, HostOp, Supervisor,
    TraceConfig,
};
use rosebud::net::{FixedSizeGen, FlowTrafficGen, ImixGen};

/// Every snapshot this suite owns. `assert_golden` refuses names outside
/// this registry, and `golden_dir_has_no_orphans` refuses files under
/// `tests/golden/` that no test reads — an orphaned snapshot silently
/// stops guarding anything, which is worse than a missing one.
const GOLDEN_SNAPSHOTS: &[&str] = &[
    "forwarder.trace",
    "firewall.trace",
    "ladders.log",
    // Owned by tests/firmware_lint.rs (shipped-firmware lint reports, text
    // and JSON).
    "firmware.lint",
    "firmware.lint.json",
    // Owned by tests/source_lint.rs (the library crates' public surface).
    "public_api.list",
];

fn golden_path(name: &str) -> PathBuf {
    assert!(
        GOLDEN_SNAPSHOTS.contains(&name),
        "snapshot {name:?} is not in GOLDEN_SNAPSHOTS; register it there \
         so the orphan check knows it is owned"
    );
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Fails on files under `tests/golden/` that no test owns — in both the
/// normal and the `UPDATE_GOLDEN=1` paths, since a refresh run is exactly
/// when a renamed snapshot leaves its stale predecessor behind.
#[test]
fn golden_dir_has_no_orphans() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut orphans = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/golden must exist") {
        let name = entry.expect("readable dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        if !GOLDEN_SNAPSHOTS.contains(&name.as_str()) {
            orphans.push(name);
        }
    }
    orphans.sort();
    assert!(
        orphans.is_empty(),
        "orphaned files under tests/golden/ (no test reads them — delete \
         them or register them in GOLDEN_SNAPSHOTS): {orphans:?}"
    );
}

/// Compares `actual` against the named snapshot, reporting the first
/// differing line. `UPDATE_GOLDEN=1` rewrites the snapshot instead.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test --test trace_golden",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "golden trace {name} diverges at line {} (refresh intentional \
             changes with UPDATE_GOLDEN=1)",
            i + 1
        );
    }
    panic!(
        "golden trace {name} length changed: expected {} lines, got {} \
         (refresh intentional changes with UPDATE_GOLDEN=1)",
        expected.lines().count(),
        actual.lines().count()
    );
}

/// The Fig. 7 forwarder at a fixed seedless load: four RPUs, 256-byte
/// frames, counters sampled every 1024 cycles, per-PC profiling on.
fn forwarder_trace_text() -> String {
    let mut sys = build_forwarding_system(4).unwrap();
    sys.enable_tracing(TraceConfig {
        counter_interval: 1024,
        pc_profile: true,
        max_events: 1 << 20,
    });
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 20.0);
    h.run(4_000);
    h.sys.take_tracer().unwrap().compact_text()
}

/// The §7.2 firewall verification pass: a fixed blacklist trace injected
/// packet by packet — attack frames must show up as zero-length drops.
fn firewall_trace_text() -> String {
    let blacklist = synthetic_blacklist(6, 7);
    let sys = build_firewall_system(4, &blacklist);
    let mut sys = sys.unwrap();
    sys.enable_tracing(TraceConfig {
        counter_interval: 2048,
        pc_profile: false,
        max_events: 1 << 20,
    });
    let trace = firewall_trace(&blacklist, 4, 256);
    let mut h = Harness::new(sys, Box::new(NoopGen), 0.0);
    for pkt in &trace {
        let mut p = pkt.clone();
        loop {
            match h.sys.inject(p) {
                Ok(()) => break,
                Err(back) => {
                    p = back;
                    h.tick();
                }
            }
        }
        h.tick();
    }
    h.run(5_000);
    h.sys.take_tracer().unwrap().compact_text()
}

#[test]
fn forwarder_trace_matches_golden() {
    assert_golden("forwarder.trace", &forwarder_trace_text());
}

#[test]
fn firewall_trace_matches_golden() {
    assert_golden("firewall.trace", &firewall_trace_text());
}

/// `Tracer::perfetto_json` over a traced run of the host-DMA forwarder
/// (DMA spans included): one JSON object per line between the header and
/// the footer, one thread-name entry per port, per RPU and for the fabric
/// plus the two process names, then one entry per recorded event.
#[test]
fn perfetto_export_has_one_entry_per_event() {
    const RPUS: usize = 4;
    let mut sys = build_host_dma_system(RPUS).unwrap();
    sys.enable_tracing(TraceConfig {
        counter_interval: 1024,
        pc_profile: false,
        max_events: 1 << 20,
    });
    let (ports, ns) = (sys.config().num_ports, sys.config().ns_per_cycle());
    let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(128, 2)), 2.0);
    h.run(20_000);
    let tracer = h.sys.take_tracer().unwrap();
    let json = tracer.perfetto_json(ns);
    let body = json
        .strip_prefix("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
        .and_then(|b| b.strip_suffix("\n]}\n"))
        .expect("header and footer");
    let lines: Vec<&str> = body.lines().collect();
    let mut meta = 0;
    let mut spans = 0;
    for (i, line) in lines.iter().enumerate() {
        let entry = if i + 1 == lines.len() {
            Some(*line)
        } else {
            line.strip_suffix(',')
        };
        let entry = entry.unwrap_or_else(|| panic!("line {i} is not one entry: {line}"));
        assert!(entry.starts_with('{') && entry.ends_with('}'), "{entry}");
        for key in ["\"ph\":", "\"pid\":", "\"tid\":"] {
            assert!(entry.contains(key), "{key} missing from {entry}");
        }
        meta += usize::from(entry.starts_with("{\"ph\":\"M\""));
        if entry.starts_with("{\"ph\":\"X\"") {
            let dur = entry
                .split("\"dur\":")
                .nth(1)
                .and_then(|d| d.split(',').next());
            let dur: f64 = dur
                .and_then(|d| d.parse().ok())
                .expect("an X event has a dur");
            assert!(dur >= 0.0, "{entry}");
            spans += 1;
        }
    }
    assert_eq!(meta, ports + RPUS + 1 + 2);
    assert_eq!(lines.len() - meta, tracer.events().len());
    assert!(spans > 0, "the host-DMA forwarder completes DMAs");
}

/// The chaos scenario of `tests/fault_recovery.rs`, traced: a firmware hang
/// under live IMIX traffic, walked through the full supervisor ladder. The
/// box's trace, then the ladder's own log.
fn chaos_trace_text(traffic_seed: u64) -> (String, String) {
    let mut sys = build_watchdog_forwarding_system(8, 64).unwrap();
    sys.enable_tracing(TraceConfig {
        counter_interval: 8192,
        pc_profile: false,
        max_events: 1 << 21,
    });
    let hang = FaultPlan::new().at(20_000, FaultKind::FirmwareHang { rpu: 3 });
    let gen = ImixGen::new(2, traffic_seed);
    let mut h = Harness::new(sys, Box::new(gen), 60.0).faults(hang);
    let mut sup = Supervisor::new(&h.sys);
    for _ in 0..70_000 {
        h.tick();
        sup.poll(&mut h.sys);
    }
    let steps = sup.steps().iter();
    let ladder = steps.map(|(at, rpu, step)| format!("@{at} rpu={rpu} {step}\n"));
    (
        h.sys.take_tracer().unwrap().compact_text(),
        ladder.collect(),
    )
}

#[test]
fn chaos_trace_is_deterministic_per_seed() {
    let (a, ladder) = chaos_trace_text(11);
    let b = chaos_trace_text(11);
    assert_eq!(
        (&a, &ladder),
        (&b.0, &b.1),
        "same seed must yield a byte-identical trace"
    );

    // Sanity: the ladder walked every rung and the trace contains the
    // interesting event classes, so determinism is not vacuous.
    for needle in [
        "rpu=3 detected kind=hung",
        "rpu=3 drain",
        "rpu=3 forced-evict",
        "rpu=3 reload",
        "rpu=3 verify",
        "rpu=3 reenabled",
    ] {
        assert!(
            ladder.contains(needle),
            "ladder log must contain {needle:?}"
        );
    }
    for needle in [
        "rpu.state rpu=3 state=reconfiguring",
        "lb.mask mask=0xf7",
        "lb.assign",
        "desc.rx",
        "desc.tx",
        "ctr rpu=0",
    ] {
        assert!(a.contains(needle), "trace must contain {needle:?}");
    }
}

#[test]
fn chaos_trace_differs_across_seeds() {
    assert_ne!(
        chaos_trace_text(11).0,
        chaos_trace_text(12).0,
        "different traffic seeds must not collapse to the same trace"
    );
}

/// The RPU ladder under `examples/chaos`'s plan: two forced recoveries —
/// the hang, and the crash, whose stopped core keeps the frames it holds,
/// so its drain times out into a forced eviction too — and the host-link
/// backoff (the PCIe outage): every step the ladder noted, every recovery
/// record timed against the plan, the retry count.
fn rpu_ladder_text(out: &mut String) {
    use std::fmt::Write as _;
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
    let sys = build_watchdog_forwarding_system(8, 64).unwrap();
    let gen = Box::new(FixedSizeGen::new(64, 2));
    let mut h = Harness::new(sys, gen, 205.0).faults(plan.clone());
    let mut sup = Supervisor::new(&h.sys);
    for _ in 0..190_000 {
        h.tick();
        sup.poll(&mut h.sys);
    }
    writeln!(out, "# rpu ladder: examples/chaos plan 0xC0FFEE, 8 RPUs").unwrap();
    for (at, rpu, step) in sup.steps() {
        writeln!(out, "@{at} sup rpu={rpu} {step}").unwrap();
    }
    for ev in sup.recoveries() {
        writeln!(out, "{:?}", ev.timed(&plan, None)).unwrap();
    }
    writeln!(out, "link_retries={}", sup.link_retries()).unwrap();
}

/// Four watchdog-forwarder boxes behind the front LB at 60 Gbps, polled
/// then ticked, with every op of `faults` applied at cycle 20 000.
fn fleet_drill(
    out: &mut String,
    title: &str,
    cycles: u64,
    faults: Vec<HostOp>,
) -> (FleetSupervisor, FaultPlan) {
    use std::fmt::Write as _;
    let fleet = Fleet::new(FleetConfig { boxes: 4 }, |_| {
        build_watchdog_forwarding_system(4, 64).unwrap()
    })
    .unwrap();
    let plan = faults
        .into_iter()
        .fold(FaultPlan::new(), |plan, op| plan.at(20_000, op));
    let gen = FlowTrafficGen::new(512, 256, 0.0, 11);
    let mut h = Harness::fleet(fleet, Box::new(gen), 60.0).faults(plan.clone());
    let mut sup = FleetSupervisor::new(&h.sys);
    for _ in 0..cycles {
        sup.poll(&mut h.sys);
        h.tick();
    }
    writeln!(out, "# box ladder: {title}").unwrap();
    out.push_str(&sup.log_text());
    for rec in sup.failovers() {
        writeln!(out, "{rec:?}").unwrap();
    }
    (sup, plan)
}

/// Every decision both recovery ladders take in three fixed drills, one
/// line each: which rung, on which cycle, with what record.
fn ladders_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    rpu_ladder_text(&mut out);
    let crash = vec![FaultKind::BoxCrash { device: 2 }.into()];
    fleet_drill(&mut out, "4-box crash drill, box 2", 70_000, crash);
    // A flap and a brownout, and under a host-link outage an RPU crash in
    // box 3, so the RPU ladders the rack drives are pinned too. (A crashed
    // core, like a hung one, never drains: the ladder waits out the drain
    // deadline and purges.)
    let havoc = vec![
        FaultKind::FrontLinkFlap {
            device: 0,
            cycles: 6_000,
        }
        .into(),
        FaultKind::BoxBrownout {
            device: 1,
            cycles: 6_000,
            factor: 4,
        }
        .into(),
        FaultKind::BoxHostOutage {
            device: 3,
            cycles: 3_000,
        }
        .into(),
        HostOp::Box {
            device: 3,
            op: Box::new(FaultKind::FirmwareCrash { rpu: 1 }.into()),
        },
    ];
    let (sup, plan) = fleet_drill(&mut out, "flap + brownout drill", 90_000, havoc);
    for device in 0..4 {
        for ev in sup.rpus(device).recoveries() {
            writeln!(out, "box {device}: {:?}", ev.timed(&plan, Some(device))).unwrap();
        }
    }
    out
}

/// Nothing about either ladder's decisions moves unless this file moves.
#[test]
fn recovery_ladders_match_golden() {
    assert_golden("ladders.log", &ladders_text());
}
