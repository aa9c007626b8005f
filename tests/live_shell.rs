//! Live-shell acceptance: a Rosebud system serving *real* frames from real
//! endpoints (in-process ring, Unix-domain sockets) must forward and filter
//! them correctly, keep the conservation ledger balanced, and — the
//! record/replay contract — produce an event log that replays bit-exactly
//! on a fresh system: same compact trace, same ledger, same diagnostics.

use std::io::{Read, Write};
use std::os::unix::net::{UnixDatagram, UnixStream};
use std::path::PathBuf;

use rosebud::apps::firewall::{
    build_firewall_system, expected_drops, firewall_trace, synthetic_blacklist,
};
use rosebud::apps::forwarder::FORWARDER_ASM;
use rosebud::core::ports::{replay, EventLog};
use rosebud::core::{Rosebud, TraceConfig};
use rosebud::shell::{ControlServer, RingBackend, Shell, UdsBackend};

fn trace_cfg() -> TraceConfig {
    TraceConfig {
        counter_interval: 4096,
        pc_profile: true,
        max_events: 1 << 21,
    }
}

fn traced_firewall(blacklist: &[[u8; 4]]) -> Rosebud {
    let mut sys = build_firewall_system(4, blacklist).unwrap();
    sys.enable_tracing(trace_cfg());
    sys
}

/// Everything a live run observably produced, for comparison with its
/// replay.
struct LiveRun {
    log: EventLog,
    trace: String,
    ledger: String,
    diagnostics: String,
}

/// Replays `run.log` on a fresh oracle and demands bit-exact equality.
fn assert_replays_bit_exactly(run: &LiveRun, blacklist: &[[u8; 4]], expect_delivered: usize) {
    let mut oracle = traced_firewall(blacklist);
    let delivered = replay(&run.log, &mut oracle);
    assert_eq!(delivered.len(), expect_delivered, "replay delivery count");
    assert_eq!(
        oracle.take_tracer().unwrap().compact_text(),
        run.trace,
        "replay trace must be byte-identical to the live run"
    );
    assert_eq!(
        format!("{:?}", oracle.ledger()),
        run.ledger,
        "replay ledger"
    );
    assert_eq!(
        format!("{:?}", oracle.diagnostics()),
        run.diagnostics,
        "replay diagnostics"
    );
    oracle.assert_conservation();
}

#[test]
fn ring_live_firewall_forwards_filters_and_replays() {
    let blacklist = synthetic_blacklist(6, 7);
    let trace = firewall_trace(&blacklist, 16, 256);
    let drops = expected_drops(&trace, &blacklist);
    let allowed = trace.len() - drops;
    assert!(drops > 0 && allowed > 0, "trace must mix verdicts");

    let (backend, peer) = RingBackend::pair();
    let mut shell = Shell::new(traced_firewall(&blacklist), backend);
    for pkt in trace.iter() {
        peer.send(pkt.port, pkt.bytes().to_vec());
        shell.pump(37); // stagger arrivals across cycles
    }
    shell.pump(6_000);

    assert_eq!(shell.log().events.len(), trace.len(), "all frames accepted");
    assert_eq!(shell.forwarded() as usize, allowed, "safe frames forwarded");
    assert_eq!(shell.rejected(), 0);
    shell.sys().assert_conservation();

    let out = peer.recv();
    assert_eq!(out.len(), allowed);
    assert!(out.iter().all(|(_, f)| f.len() == 256));

    let run = LiveRun {
        log: shell.log().clone(),
        trace: shell.sys().tracer().unwrap().compact_text(),
        ledger: format!("{:?}", shell.sys().ledger()),
        diagnostics: format!("{:?}", shell.sys().diagnostics()),
    };
    // The on-disk text format is part of the contract: the log must survive
    // serialization before it earns the replay.
    let text = run.log.to_text();
    assert_eq!(EventLog::parse_text(&text).unwrap(), run.log);
    assert_replays_bit_exactly(&run, &blacklist, allowed);
}

#[test]
fn uds_live_firewall_forwards_filters_and_replays() {
    let blacklist = synthetic_blacklist(6, 7);
    let trace = firewall_trace(&blacklist, 16, 256);
    let drops = expected_drops(&trace, &blacklist);
    let allowed = trace.len() - drops;

    let dir = std::env::temp_dir().join(format!("rosebud-uds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let port_paths: Vec<PathBuf> = (0..2).map(|p| dir.join(format!("port{p}.sock"))).collect();
    let backend = UdsBackend::bind(&port_paths).unwrap();
    let mut shell = Shell::new(traced_firewall(&blacklist), backend);

    // One client endpoint per port, bound so the shell can answer back.
    let clients: Vec<UnixDatagram> = (0..2)
        .map(|p| {
            let path = dir.join(format!("client{p}.sock"));
            let _ = std::fs::remove_file(&path);
            let s = UnixDatagram::bind(&path).unwrap();
            s.set_nonblocking(true).unwrap();
            s
        })
        .collect();
    for pkt in trace.iter() {
        clients[pkt.port as usize]
            .send_to(pkt.bytes(), &port_paths[pkt.port as usize])
            .unwrap();
    }

    // Datagrams are in the socket buffers before send_to returns, but give
    // the shell generous slack anyway: pump until everything is accepted.
    let mut spins = 0;
    while shell.log().events.len() < trace.len() {
        shell.pump(100);
        spins += 1;
        assert!(spins < 1_000, "frames never all arrived over UDS");
    }
    shell.pump(6_000);

    assert_eq!(shell.forwarded() as usize, allowed);
    assert_eq!(shell.rejected(), 0);
    shell.sys().assert_conservation();

    // The safe frames came back over the sockets, byte-for-byte.
    let mut returned: Vec<Vec<u8>> = Vec::new();
    let mut buf = [0u8; 4096];
    for c in &clients {
        while let Ok((n, _)) = c.recv_from(&mut buf) {
            returned.push(buf[..n].to_vec());
        }
    }
    assert_eq!(returned.len(), allowed, "allowed frames return to clients");
    let matcher = rosebud::accel::FirewallMatcher::from_prefixes(&blacklist);
    let mut sent_safe: Vec<Vec<u8>> = trace
        .iter()
        .filter(|p| {
            p.ipv4()
                .map(|ip| !matcher.is_blacklisted(ip.src_u32()))
                .unwrap_or(false)
        })
        .map(|p| p.bytes().to_vec())
        .collect();
    sent_safe.sort();
    returned.sort();
    assert_eq!(returned, sent_safe, "forwarded frames are unmodified");

    let run = LiveRun {
        log: shell.log().clone(),
        trace: shell.sys().tracer().unwrap().compact_text(),
        ledger: format!("{:?}", shell.sys().ledger()),
        diagnostics: format!("{:?}", shell.sys().diagnostics()),
    };
    assert_replays_bit_exactly(&run, &blacklist, allowed);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn control_service_exports_a_replayable_event_log() {
    let blacklist = synthetic_blacklist(4, 3);
    let trace = firewall_trace(&blacklist, 24, 128);
    let allowed = trace.len() - expected_drops(&trace, &blacklist);

    let dir = std::env::temp_dir().join(format!("rosebud-ctl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("control.sock");
    let mut server = ControlServer::bind(&sock).unwrap();

    // One request over the real control socket; answers with the body of a
    // `200`.
    let exchange = |server: &mut ControlServer, shell: &mut Shell<RingBackend>, request: String| {
        let mut client = UnixStream::connect(&sock).unwrap();
        client.write_all(request.as_bytes()).unwrap();
        assert_eq!(server.poll(shell), 1);
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(
            head.starts_with("HTTP/1.0 200 OK"),
            "{request}: {head} {body}"
        );
        body.to_string()
    };
    let get = |path: &str| format!("GET {path} HTTP/1.0\r\n\r\n");
    let post = |path: &str, body: &str| {
        let length = body.len();
        format!("POST {path} HTTP/1.0\r\nContent-Length: {length}\r\n\r\n{body}")
    };

    // The session is operated on while it runs: RPU 1 leaves the rotation
    // and comes back, RPU 2 is hot-loaded with a plain forwarder — which,
    // unlike the factory image, lets blacklisted sources through — and RPU 3
    // goes through a gated partial reconfiguration.
    let mut posts = [
        (5, post("/rpu/1/disable", "")),
        (9, post("/firmware/2", FORWARDER_ASM)),
        (14, post("/rpu/1/enable", "")),
        (18, post("/rpu/3/reload", "")),
    ]
    .into_iter()
    .peekable();
    let posted = posts.len();

    let (backend, peer) = RingBackend::pair();
    let mut shell = Shell::new(traced_firewall(&blacklist), backend);
    // Clean sources first: the blacklisted frames then arrive after the
    // forwarder is in place, and one of them is handed to RPU 2.
    for (i, pkt) in trace.iter().rev().enumerate() {
        if let Some((_, request)) = posts.next_if(|(at, _)| *at == i) {
            exchange(&mut server, &mut shell, request);
        }
        peer.send(pkt.port, pkt.bytes().to_vec());
        shell.pump(23);
        server.poll(&mut shell); // control plane interleaves with the run
    }
    shell.pump(6_000);
    assert_eq!(shell.log().ops.len(), posted, "every post is in the log");

    let stats = exchange(&mut server, &mut shell, get("/stats"));
    let forwarded = shell.forwarded() as usize;
    assert!(stats.contains(&format!("forwarded={forwarded}")), "{stats}");
    assert!(
        forwarded > allowed,
        "the forwarder on RPU 2 let {} blacklisted frames through",
        forwarded - allowed
    );

    // The exported log is a complete, replayable record of the live run,
    // operations included: it survives its text form, and a fresh box built
    // by the same factory reproduces trace, ledger and diagnostics from it.
    let events = exchange(&mut server, &mut shell, get("/events"));
    assert!(events.starts_with("rosebud-events v2 "), "{events}");
    let run = LiveRun {
        log: EventLog::parse_text(&events).unwrap(),
        trace: shell.sys().tracer().unwrap().compact_text(),
        ledger: format!("{:?}", shell.sys().ledger()),
        diagnostics: format!("{:?}", shell.sys().diagnostics()),
    };
    assert_eq!(&run.log, shell.log());
    assert_replays_bit_exactly(&run, &blacklist, forwarded);

    let _ = std::fs::remove_dir_all(&dir);
}
