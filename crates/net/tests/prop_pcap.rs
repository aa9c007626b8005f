//! Hostile input for the pcap reader: whatever is done to a valid capture,
//! `parse_pcap` answers with an error or with a trace a replay port takes —
//! never a panic, and never more frame bytes than the file holds.

use proptest::prelude::*;
use rosebud_kernel::IngressPort;
use rosebud_net::{
    parse_pcap, to_pcap, FixedSizeGen, Packet, PcapError, PcapReplayPort, TrafficGen,
};

const CLOCK_HZ: u64 = 250_000_000;
const HEADER: usize = 24;

/// A capture of one frame per `(size, gap)`, each stamped `gap` cycles
/// after the one before: the global header, then the records.
fn capture(frames: &[(usize, u64)]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut trace = Vec::new();
    let mut at = 0;
    for (i, &(size, gap)) in frames.iter().enumerate() {
        at += gap;
        trace.push(FixedSizeGen::new(size, 2).generate(i as u64, at));
    }
    let bytes = to_pcap(&trace, CLOCK_HZ);
    let mut records = Vec::new();
    let mut rest = &bytes[HEADER..];
    while !rest.is_empty() {
        let incl = u32::from_le_bytes(rest[8..12].try_into().unwrap()) as usize;
        let (record, tail) = rest.split_at(16 + incl);
        records.push(record.to_vec());
        rest = tail;
    }
    (bytes[..HEADER].to_vec(), records)
}

#[test]
fn a_capture_whose_stamps_go_backwards_is_an_error() {
    // Two records, stamped 2 s and then 1 s: what a capture merged from two
    // interfaces looks like.
    let (header, mut records) = capture(&[(64, 2 * CLOCK_HZ), (64, 0)]);
    records[1][..4].copy_from_slice(&1u32.to_le_bytes());
    let bytes = [header, records.concat()].concat();
    assert_eq!(
        parse_pcap(&bytes, CLOCK_HZ).unwrap_err(),
        PcapError::OutOfOrder { record: 1 }
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_mangled_capture_is_an_error_or_a_replayable_trace(
        frames in proptest::collection::vec((60usize..300, 0u64..2_000_000), 1..6),
        edits in proptest::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..5),
    ) {
        let (header, mut records) = capture(&frames);
        let mut tail = Vec::new();
        for (kind, a, b) in edits {
            let n = records.len();
            let (a, b) = (a as usize, b as usize);
            match kind {
                // Record-level: swapped, duplicated, dropped, and a length
                // field claiming up to 4 GiB.
                0 if n > 0 => records.swap(a % n, b % n),
                1 if n > 0 => records.insert(a % n, records[b % n].clone()),
                2 if n > 0 => drop(records.remove(a % n)),
                3 if n > 0 => {
                    let incl = if b % 2 == 0 { u32::MAX } else { b as u32 };
                    records[a % n][8..12].copy_from_slice(&incl.to_le_bytes());
                }
                // Byte-level, over the whole file: a bit flip and a cut.
                4 => tail.push((false, a, b)),
                _ => tail.push((true, a, b)),
            }
        }
        let mut bytes = [header, records.concat()].concat();
        for (truncate, a, b) in tail {
            if bytes.is_empty() {
                break;
            }
            if truncate {
                bytes.truncate(a % bytes.len());
            } else {
                let at = a % bytes.len();
                bytes[at] ^= 1 << (b % 8);
            }
        }
        if let Ok(trace) = parse_pcap(&bytes, CLOCK_HZ) {
            prop_assert!(trace.iter().map(Packet::len).sum::<u64>() <= bytes.len() as u64);
            let mut port = PcapReplayPort::new(&trace);
            let last = trace.last().map_or(0, |p| p.ts_gen);
            let mut replayed = 0;
            while port.poll(last).is_some() {
                replayed += 1;
            }
            prop_assert_eq!(replayed, trace.len());
        }
    }
}
