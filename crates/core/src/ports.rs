//! The device-edge port layer: how traffic reaches and leaves a [`Rosebud`].
//!
//! The simulation core is a pure, cycle-deterministic function of its
//! injected traffic; everything on the far side of a MAC — a paced
//! generator, a pcap replay, a fleet front link, a live socket — implements
//! the [`IngressPort`]/[`EgressPort`] contract from `rosebud_kernel` and is
//! driven through [`pump`]. The split buys two things:
//!
//! * any feeder is "a small port impl", not a change to the core, and
//! * every external arrival can be recorded as a cycle-stamped event
//!   ([`EventLog`]) and replayed bit-exactly on a fresh system
//!   ([`replay`]) — a live run becomes a reproducible testcase.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

pub use rosebud_kernel::{CollectEgress, EgressPort, IngressPort, LinkPort, PortClock};
use rosebud_kernel::{Cycle, StampedIngress};
use rosebud_net::Packet;

use crate::system::Rosebud;

/// Drains `source` into `sys`'s receive MACs for the current cycle,
/// returning how many frames were accepted.
///
/// The loop follows the port contract: poll until the source runs dry, hand
/// refused frames back through [`IngressPort::give_back`]. A source that
/// re-offers the *same* frame after a refusal (a replay or link port — the
/// target MAC stays busy all cycle) ends the pump for this cycle; a source
/// that moves on to other traffic (a multi-lane generator) keeps pumping.
///
/// # Examples
///
/// ```
/// use rosebud_core::ports::pump;
/// use rosebud_core::{Rosebud, RosebudConfig, RpuProgram};
/// use rosebud_kernel::StampedIngress;
/// use rosebud_net::{FixedSizeGen, TrafficGen};
/// # let image = rosebud_riscv::assemble("spin: j spin").unwrap();
/// # let mut sys = Rosebud::builder(RosebudConfig::with_rpus(2))
/// #     .firmware(move |_| RpuProgram::Riscv(image.clone()))
/// #     .build()
/// #     .unwrap();
///
/// let mut gen = FixedSizeGen::new(64, 2);
/// let mut source = StampedIngress::new();
/// source.push_at(0, gen.generate(0, 0));
/// assert_eq!(pump(&mut sys, &mut source), 1);
/// ```
pub fn pump(sys: &mut Rosebud, source: &mut dyn IngressPort<Packet>) -> u64 {
    let now = sys.now();
    let mut accepted = 0;
    let mut last_refused: Option<u64> = None;
    while let Some(pkt) = source.poll(now) {
        let id = pkt.id;
        match sys.inject(pkt) {
            Ok(()) => accepted += 1,
            Err(pkt) => {
                let stuck = last_refused == Some(id);
                source.give_back(pkt);
                if stuck {
                    break;
                }
                last_refused = Some(id);
            }
        }
    }
    accepted
}

/// One recorded external arrival: the frame and the cycle its injection was
/// accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortEvent {
    /// Cycle the receive MAC accepted the frame.
    pub cycle: Cycle,
    /// The frame, exactly as injected.
    pub pkt: Packet,
}

/// A cycle-stamped record of every external arrival over a run, plus the
/// total cycles ticked — everything needed to reproduce the run bit-exactly
/// on a fresh system ([`replay`]).
///
/// The text format is line-oriented and versioned:
///
/// ```text
/// rosebud-events v1 cycles=<total>
/// <cycle> <id> <port> <ts_gen> <frame-hex>
/// ...
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    /// Accepted arrivals in cycle order.
    pub events: Vec<PortEvent>,
    /// Total cycles the recorded run ticked.
    pub cycles: u64,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an accepted arrival.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` precedes the last recorded event (arrivals are
    /// accepted in cycle order).
    pub fn push(&mut self, cycle: Cycle, pkt: Packet) {
        if let Some(last) = self.events.last() {
            assert!(cycle >= last.cycle, "events must be recorded in order");
        }
        self.events.push(PortEvent { cycle, pkt });
    }

    /// Serializes to the versioned text format, into one exactly-sized
    /// buffer.
    pub fn to_text(&self) -> String {
        const HEADER: &str = "rosebud-events v1 cycles=";
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let digits = |n: u64| n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let size = HEADER.len()
            + digits(self.cycles)
            + 1
            + self
                .events
                .iter()
                .map(|ev| {
                    let p = &ev.pkt;
                    // Four numbers, four spaces, two hex digits a byte, '\n'.
                    digits(ev.cycle)
                        + digits(p.id)
                        + digits(u64::from(p.port))
                        + digits(p.ts_gen)
                        + 5
                        + 2 * p.data.len()
                })
                .sum::<usize>();
        let mut out = Vec::with_capacity(size);
        let written = "writing to a Vec cannot fail";
        writeln!(out, "{HEADER}{}", self.cycles).expect(written);
        for ev in &self.events {
            let p = &ev.pkt;
            write!(out, "{} {} {} {} ", ev.cycle, p.id, p.port, p.ts_gen).expect(written);
            for &b in p.bytes() {
                out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
            }
            out.push(b'\n');
        }
        debug_assert_eq!(out.len(), size);
        String::from_utf8(out).expect("decimal digits, spaces and hex digits are ASCII")
    }

    /// Parses the text format back.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty event log")?;
        let cycles = header
            .strip_prefix("rosebud-events v1 cycles=")
            .ok_or_else(|| format!("bad header: {header:?}"))?
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad cycle count: {e}"))?;
        let mut log = Self {
            events: Vec::new(),
            cycles,
        };
        for (n, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut f = line.split_ascii_whitespace();
            let mut field = |name: &str| {
                f.next()
                    .ok_or_else(|| format!("line {}: missing {name}", n + 2))
            };
            let cycle: Cycle = parse_num(field("cycle")?, n)?;
            let id: u64 = parse_num(field("id")?, n)?;
            let port: u8 = parse_num(field("port")?, n)?;
            let ts_gen: Cycle = parse_num(field("ts_gen")?, n)?;
            let hex = field("frame bytes")?;
            if hex.len() % 2 != 0 {
                return Err(format!("line {}: odd hex length", n + 2));
            }
            let mut data = Vec::with_capacity(hex.len() / 2);
            for i in (0..hex.len()).step_by(2) {
                let byte = u8::from_str_radix(&hex[i..i + 2], 16)
                    .map_err(|e| format!("line {}: bad hex: {e}", n + 2))?;
                data.push(byte);
            }
            log.push(cycle, Packet::new(id, data, port, ts_gen));
        }
        Ok(log)
    }

    /// The log as a replayable ingress port: every event is delivered at its
    /// recorded cycle, then the source reports
    /// [`Exhausted`](PortClock::Exhausted).
    pub fn replay_port(&self) -> StampedIngress<Packet> {
        let mut port = StampedIngress::new();
        for ev in &self.events {
            port.push_at(ev.cycle, ev.pkt.clone());
        }
        port.finish();
        port
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| format!("line {}: bad number {s:?}: {e}", line + 2))
}

/// Replays a recorded run on a fresh system: injects every logged arrival
/// at its recorded cycle, ticks exactly the recorded cycle count, and
/// returns everything the device delivered. Determinism makes this exact —
/// the log holds only *accepted* injections, so each one succeeds at the
/// same cycle it did live, and every downstream effect (trace, ledger,
/// diagnostics) reproduces bit-for-bit.
///
/// `sys` must be built by the same factory as the recorded run (same
/// config, firmware, LB).
pub fn replay(log: &EventLog, sys: &mut Rosebud) -> Vec<Packet> {
    let mut source = log.replay_port();
    let mut delivered = Vec::new();
    while sys.now() < log.cycles {
        pump(sys, &mut source);
        sys.tick();
        for p in 0..sys.config().num_ports {
            delivered.extend(sys.take_output(p));
        }
        delivered.extend(sys.take_host_packets());
    }
    delivered
}

/// A cloneable egress sink over a shared queue: bind one clone to each of a
/// device's ports and drain the union from outside the simulation — the
/// shape a live I/O shell needs to turn deliveries into socket writes.
///
/// # Examples
///
/// ```
/// use rosebud_core::ports::{EgressPort, SharedEgress};
///
/// let sink = SharedEgress::new();
/// let mut clone = sink.clone();
/// # let pkt = rosebud_net::Packet::new(0, vec![0u8; 64], 0, 0);
/// clone.offer(pkt, 64, 0).unwrap();
/// let mut delivered = Vec::new();
/// sink.drain_into(&mut delivered);
/// assert_eq!(delivered.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedEgress {
    queue: Arc<Mutex<VecDeque<Packet>>>,
}

impl SharedEgress {
    /// An empty shared sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves every frame delivered since the last drain onto the end of
    /// `out`, in delivery order — a caller that drains every cycle keeps one
    /// `Vec` for it.
    pub fn drain_into(&self, out: &mut Vec<Packet>) {
        out.extend(self.queue.lock().expect("egress queue poisoned").drain(..));
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.queue.lock().expect("egress queue poisoned").len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EgressPort<Packet> for SharedEgress {
    fn can_accept(&self, _len_bytes: u64) -> bool {
        true
    }

    fn offer(&mut self, pkt: Packet, _len_bytes: u64, _now: Cycle) -> Result<(), Packet> {
        self.queue
            .lock()
            .expect("egress queue poisoned")
            .push_back(pkt);
        Ok(())
    }

    fn backlog(&self) -> usize {
        self.len()
    }

    fn name(&self) -> &'static str {
        "shared"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud_net::{FixedSizeGen, TrafficGen};

    #[test]
    fn event_log_round_trips_through_text() {
        let mut gen = FixedSizeGen::new(64, 2);
        let mut log = EventLog::new();
        for i in 0..5u64 {
            log.push(i * 3, gen.generate(i, i * 3));
        }
        log.cycles = 100;
        let text = log.to_text();
        let back = EventLog::parse_text(&text).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn event_log_parse_rejects_garbage() {
        assert!(EventLog::parse_text("").is_err());
        assert!(EventLog::parse_text("not-a-header\n").is_err());
        assert!(EventLog::parse_text("rosebud-events v1 cycles=10\n5 0 0\n").is_err());
        assert!(EventLog::parse_text("rosebud-events v1 cycles=10\n5 0 0 0 abc\n").is_err());
        assert!(EventLog::parse_text("rosebud-events v1 cycles=10\n5 0 0 0 zz\n").is_err());
    }

    #[test]
    #[should_panic(expected = "recorded in order")]
    fn event_log_enforces_cycle_order() {
        let mut gen = FixedSizeGen::new(64, 1);
        let mut log = EventLog::new();
        log.push(10, gen.generate(0, 10));
        log.push(9, gen.generate(1, 9));
    }

    #[test]
    fn shared_egress_clones_feed_one_queue() {
        let sink = SharedEgress::new();
        let mut a = sink.clone();
        let mut b = sink.clone();
        let mut gen = FixedSizeGen::new(64, 2);
        a.offer(gen.generate(0, 0), 64, 0).unwrap();
        b.offer(gen.generate(1, 0), 64, 0).unwrap();
        assert_eq!(sink.len(), 2);
        let mut drained = Vec::new();
        sink.drain_into(&mut drained);
        assert_eq!(drained[0].id, 0);
        assert_eq!(drained[1].id, 1);
        assert!(sink.is_empty());
    }
}
