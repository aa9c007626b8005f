//! `GenPort` on its own clock: a cycle the driver did not poll counts as
//! one in which every offer was refused, so a driver that polls only now
//! and then sees exactly the frames, ids and stamps a driver polling every
//! cycle would, and [`IngressPort::clock`] never names a cycle later than
//! the first one a frame is ready.

use proptest::prelude::*;
use rosebud_kernel::{IngressPort, PortClock};
use rosebud_net::{FixedSizeGen, FlowTrafficGen, GenPort, ImixGen, Packet, TrafficGen};

/// A frame as a driver sees it.
fn seen(pkt: &Packet) -> (u64, u64, u8, Vec<u8>) {
    (pkt.id, pkt.ts_gen, pkt.port, pkt.data.to_vec())
}

/// Polls `port` dry at `now`, taking the first `take` offers and handing
/// every later one back; returns what was offered, in order.
fn poll_dry(port: &mut GenPort, now: u64, take: usize) -> Vec<(u64, u64, u8, Vec<u8>)> {
    let mut offered = Vec::new();
    while let Some(pkt) = port.poll(now) {
        offered.push(seen(&pkt));
        if offered.len() > take {
            port.give_back(pkt);
        }
    }
    offered
}

/// A paced port over one of three generators (fixed size, IMIX, flows) at
/// `tenth_gbps / 10`: `lanes` lanes, one per port, or for an even `seed`
/// and one lane the aggregate shape.
fn drawn_port(kind: u8, size: usize, lanes: usize, tenth_gbps: u32, seed: u64) -> GenPort {
    let gen: Box<dyn TrafficGen> = match kind {
        0 => Box::new(FixedSizeGen::new(size, lanes as u8)),
        1 => Box::new(ImixGen::new(lanes as u8, seed)),
        _ => Box::new(FlowTrafficGen::new(64, size, 0.01, seed)),
    };
    let gbps = f64::from(tenth_gbps) / 10.0;
    if lanes == 1 && seed.is_multiple_of(2) {
        GenPort::aggregate(gen, gbps, 4.0)
    } else {
        GenPort::per_port(gen, gbps, 4.0, lanes)
    }
}

#[test]
fn a_long_gap_keeps_its_budget() {
    // One lane at 0.25 Gbps: 0.125 B a cycle, so a 4976-B frame (5000 wire
    // bytes) takes 40 000 grants — more than any capped catch-up gives.
    let port = || GenPort::per_port(Box::new(FixedSizeGen::new(4976, 1)), 0.25, 4.0, 1);
    let (mut every, mut gapped) = (port(), port());
    for now in 0..45_000 {
        assert!(poll_dry(&mut every, now, 0).len() <= 1);
    }
    assert_eq!(every.backlog(), 1, "the twin has one frame parked");
    assert!(poll_dry(&mut gapped, 0, 0).is_empty());
    let (want, got) = (every.poll(45_000), gapped.poll(45_000));
    let (want, got) = (want.expect("parked frame"), got.expect("caught up"));
    assert_eq!(seen(&got), seen(&want));
    assert!(
        got.ts_gen < 45_000,
        "stamped when generated, not when polled"
    );
    assert_eq!(gapped.generated(), every.generated());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // (i) No poll before the cycle a `NotBefore` names yields a frame.
    #[test]
    fn no_frame_before_the_clock_says(
        kind in 0u8..3,
        size in 64usize..1_600,
        lanes in 1usize..4,
        tenth_gbps in 1u32..2_000,
        seed in 0u64..1_000,
        takes in proptest::collection::vec(0usize..3, 1..64),
    ) {
        let mut port = drawn_port(kind, size, lanes, tenth_gbps, seed);
        // The latest cycle any bound read since the last offer names.
        let mut bound = 0;
        for now in 0..3_000u64 {
            let offered = poll_dry(&mut port, now, takes[now as usize % takes.len()]);
            prop_assert!(offered.is_empty() || now >= bound, "frame at {} before {}", now, bound);
            if !offered.is_empty() {
                bound = 0;
            }
            if let PortClock::NotBefore(at) = port.clock(now + 1) {
                bound = bound.max(at);
            }
        }
    }

    // (ii) Polling after any gap equals polling every cycle with each
    // unpolled cycle's offers refused.
    #[test]
    fn catching_up_equals_refusing_every_cycle(
        kind in 0u8..3,
        size in 64usize..1_600,
        lanes in 1usize..4,
        tenth_gbps in 1u32..2_000,
        seed in 0u64..1_000,
        polls in proptest::collection::vec((1u64..1_500, 0usize..4), 1..24),
    ) {
        let (mut every, mut gapped) = (
            drawn_port(kind, size, lanes, tenth_gbps, seed),
            drawn_port(kind, size, lanes, tenth_gbps, seed),
        );
        let mut now = 0;
        for (gap, take) in polls {
            let (want, got) = (poll_dry(&mut every, now, take), poll_dry(&mut gapped, now, take));
            prop_assert_eq!(&got, &want, "offers at cycle {}", now);
            prop_assert_eq!(gapped.generated(), every.generated());
            prop_assert_eq!(gapped.backlog(), every.backlog());
            for cycle in now + 1..now + gap {
                poll_dry(&mut every, cycle, 0);
            }
            now += gap;
        }
    }
}
