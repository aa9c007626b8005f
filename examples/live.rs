//! A live Rosebud middlebox: the deterministic sim core serving real
//! frames through the async I/O shell, with every arrival — and every host
//! operation posted to the control socket — recorded for bit-exact replay.
//!
//! Two modes:
//!
//! * `cargo run --release --example live` — binds one Unix-domain datagram
//!   socket per port plus a control socket, then serves forever. Talk to it
//!   from another terminal:
//!
//!   ```text
//!   # send a frame into port 0 (any tool that writes UDS datagrams works)
//!   socat - UNIX-SENDTO:/tmp/rosebud-live/port0.sock <<< "hello"
//!   # watch it
//!   curl --unix-socket /tmp/rosebud-live/control.sock http://x/stats
//!   curl --unix-socket /tmp/rosebud-live/control.sock http://x/ledger
//!   curl --unix-socket /tmp/rosebud-live/control.sock http://x/events
//!   # hot-swap firmware on RPU 2; take RPU 1 out of rotation and back
//!   curl --unix-socket /tmp/rosebud-live/control.sock \
//!        --data-binary @firmware.s http://x/firmware/2
//!   curl --unix-socket /tmp/rosebud-live/control.sock -X POST http://x/rpu/1/disable
//!   curl --unix-socket /tmp/rosebud-live/control.sock -X POST http://x/rpu/1/enable
//!   # the log now holds those three ops beside the frames: save it, replay it
//!   curl --unix-socket /tmp/rosebud-live/control.sock http://x/events > session.log
//!   ```
//!
//! * `cargo run --release --example live -- --smoke` — a self-contained CI
//!   pass: drives the blacklist firewall with real frames over the
//!   in-process ring, writes the event log (`live-events.log`) and the
//!   Perfetto trace (`live-trace.json`), then replays the log on a fresh
//!   system and verifies the run reproduced bit-exactly.

use rosebud::apps::firewall::{
    build_firewall_system, expected_drops, firewall_trace, synthetic_blacklist,
};
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

fn traced_firewall(blacklist: &[[u8; 4]]) -> Result<Rosebud, String> {
    let mut sys = build_firewall_system(4, blacklist)?;
    sys.enable_tracing(trace_cfg());
    Ok(sys)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let blacklist = synthetic_blacklist(16, 7);
    if std::env::args().any(|a| a == "--smoke") {
        smoke(&blacklist)
    } else {
        serve(&blacklist)
    }
}

/// CI smoke: a recorded live run over the ring, artifacts on disk, and the
/// replay verified against the live observables.
fn smoke(blacklist: &[[u8; 4]]) -> Result<(), Box<dyn std::error::Error>> {
    let trace = firewall_trace(blacklist, 48, 256);
    let drops = expected_drops(&trace, blacklist);

    let (backend, peer) = RingBackend::pair();
    let mut shell = Shell::new(traced_firewall(blacklist)?, backend);
    for pkt in trace.iter() {
        peer.send(pkt.port, pkt.bytes().to_vec());
        shell.pump(37);
    }
    shell.pump(8_000);
    shell.sys().assert_conservation();

    let returned = peer.recv().len();
    println!(
        "live: {} frames in, {} forwarded, {} dropped by the blacklist",
        shell.log().events.len(),
        returned,
        drops
    );
    assert_eq!(shell.log().events.len(), trace.len());
    assert_eq!(returned, trace.len() - drops);

    // The two artifacts a live run leaves behind: the replayable event log
    // and the Perfetto trace of the run that produced it.
    std::fs::write("live-events.log", shell.log().to_text())?;
    let tracer = shell.sys().tracer().expect("tracing enabled");
    std::fs::write(
        "live-trace.json",
        tracer.perfetto_json(shell.sys().config().ns_per_cycle()),
    )?;

    // Round-trip through the on-disk format, then replay on a fresh
    // system: trace, ledger, and diagnostics must reproduce.
    let log = EventLog::parse_text(&std::fs::read_to_string("live-events.log")?)
        .map_err(std::io::Error::other)?;
    let mut oracle = traced_firewall(blacklist)?;
    let delivered = replay(&log, &mut oracle);
    assert_eq!(delivered.len(), returned, "replay delivery count");
    assert_eq!(
        oracle.take_tracer().unwrap().compact_text(),
        tracer.compact_text(),
        "replay trace must be byte-identical"
    );
    assert_eq!(oracle.ledger(), shell.sys().ledger(), "replay ledger");
    assert_eq!(
        format!("{:?}", oracle.diagnostics()),
        format!("{:?}", shell.sys().diagnostics()),
        "replay diagnostics"
    );
    println!("replay: bit-exact ({} frames delivered)", delivered.len());
    Ok(())
}

/// Live service: UDS frame ports + control socket, forever.
fn serve(blacklist: &[[u8; 4]]) -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::PathBuf::from("/tmp/rosebud-live");
    std::fs::create_dir_all(&dir)?;
    let sys = traced_firewall(blacklist)?;
    let ports = sys.config().num_ports;
    let paths: Vec<_> = (0..ports)
        .map(|p| dir.join(format!("port{p}.sock")))
        .collect();
    let backend = UdsBackend::bind(&paths)?;
    let mut control = ControlServer::bind(dir.join("control.sock"))?;
    let mut shell = Shell::new(sys, backend);

    println!("live firewall up ({} blacklist entries)", blacklist.len());
    for p in &paths {
        println!("  frame port: {}", p.display());
    }
    println!("  control:    {}", dir.join("control.sock").display());
    println!(
        "  try: curl --unix-socket {} http://x/stats",
        dir.join("control.sock").display()
    );

    loop {
        // ~4 µs of simulated time per iteration, then let the host breathe:
        // the core stays deterministic, only the cycles at which real
        // frames and control requests arrive vary run to run — and those
        // are exactly what the event log records.
        shell.pump(1_000);
        control.poll(&mut shell);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
