//! Property tests for the packet-port layer: arbitrary cycle-stamped
//! arrival interleavings are elision-invariant (same output as the
//! un-elided oracle of `tests/kernel_equivalence.rs`), and any random live
//! ring session replays bit-exactly from its event log.

use proptest::prelude::*;
use rosebud::apps::forwarder::{build_duty_cycle_forwarding_system, build_forwarding_system};
use rosebud::core::ports::{pump, replay, Device};
use rosebud::core::{Rosebud, TraceConfig};
use rosebud::kernel::StampedIngress;
use rosebud::net::Packet;
use rosebud::shell::{RingBackend, Shell};

mod common;

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
            common::wake_all(&mut sys);
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
    // record on a live shell, replay on a fresh system, and demand the
    // same trace, ledger, and diagnostics.
    #[test]
    fn random_ring_sessions_replay_bit_exactly(
        session in proptest::collection::vec(
            (1u64..80, 64usize..600, 0u8..2),
            1..24,
        ),
    ) {
        let (backend, peer) = RingBackend::pair();
        let mut shell = Shell::new(traced(build_forwarding_system(8).unwrap()), backend);
        for &(gap, size, port) in &session {
            peer.send(port, vec![0x5A; size]);
            shell.pump(gap);
        }
        shell.pump(6_000);
        shell.sys().assert_conservation();
        prop_assert_eq!(shell.log().events.len(), session.len());

        let log = shell.log().clone();
        let live_trace = shell.sys_mut().take_tracer().unwrap().compact_text();
        let live_ledger = shell.sys().ledger();
        let live_diag = format!("{:?}", shell.sys().diagnostics());

        let mut oracle = traced(build_forwarding_system(8).unwrap());
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
