//! The device-edge port layer: how traffic reaches and leaves a [`Rosebud`].
//!
//! The simulation core is a pure, cycle-deterministic function of its
//! injected traffic; everything on the far side of a MAC — a paced
//! generator, a pcap replay, a fleet front link, a live socket — implements
//! the [`IngressPort`]/[`EgressPort`] contract from `rosebud_kernel` and is
//! driven through [`pump`]. The thing in the middle is a [`Device`] — a
//! [`Rosebud`], or a [`Fleet`](crate::Fleet) whose lanes are boxes — and the
//! three loops over it ([`pump`], [`replay`],
//! [`Harness::tick`](crate::Harness::tick)) are written once. The split buys
//! two things:
//!
//! * any feeder is "a small port impl", not a change to the core, and
//! * every external arrival can be recorded as a cycle-stamped event
//!   ([`EventLog`]) and replayed bit-exactly on a fresh system
//!   ([`replay`]) — a live run becomes a reproducible testcase.

use std::io::Write;

use rosebud_kernel::{Cycle, StampedIngress};
pub use rosebud_kernel::{EgressPort, IngressPort, LinkPort, PortClock};
use rosebud_net::Packet;

use crate::system::Rosebud;

/// What a tester drives: frames in through [`inject`](Self::inject), one
/// clock edge per [`tick`](Self::tick), frames out through
/// [`drain`](Self::drain). Everything that crosses the device boundary
/// crosses here.
pub trait Device {
    /// Current cycle.
    fn now(&self) -> Cycle;

    /// Nanoseconds per cycle.
    fn ns_per_cycle(&self) -> f64;

    /// Offers a frame to the device's ingress; a refusal hands the same
    /// frame back and changes nothing.
    fn inject(&mut self, pkt: Packet) -> Result<(), Packet>;

    /// Advances the device one cycle.
    fn tick(&mut self);

    /// Hands every frame delivered since the last drain to `sink`, each
    /// exactly once, as `(lane, frame)`. The buffers are emptied in place
    /// and keep their capacity, so a caller that drains every cycle costs
    /// the device no allocation.
    fn drain(&mut self, sink: &mut dyn FnMut(usize, Packet));
}

/// Lane `p < num_ports` is physical port `p` (frames a bound
/// [`EgressPort`] took never show up here); lane `num_ports` is the host.
impl Device for Rosebud {
    fn now(&self) -> Cycle {
        Rosebud::now(self)
    }

    fn ns_per_cycle(&self) -> f64 {
        self.config().ns_per_cycle()
    }

    fn inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        Rosebud::inject(self, pkt)
    }

    fn tick(&mut self) {
        Rosebud::tick(self);
    }

    fn drain(&mut self, sink: &mut dyn FnMut(usize, Packet)) {
        self.mac.drain(sink);
        self.host.drain(self.mac.num_ports(), sink);
    }
}

/// Drains `source` into `dev`'s ingress for the current cycle, returning
/// how many frames were accepted.
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
pub fn pump<D: Device + ?Sized>(dev: &mut D, source: &mut dyn IngressPort<Packet>) -> u64 {
    let now = dev.now();
    let mut accepted = 0;
    let mut last_refused: Option<u64> = None;
    while let Some(pkt) = source.poll(now) {
        let id = pkt.id;
        match dev.inject(pkt) {
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
            let hex = field("frame bytes")?.as_bytes();
            if hex.len() % 2 != 0 {
                return Err(format!("line {}: odd hex length", n + 2));
            }
            let mut data = Vec::with_capacity(hex.len() / 2);
            // Byte-wise, so a non-ASCII field is a parse error rather than a
            // `str` slice off a char boundary.
            let nibble = |digit: u8| char::from(digit).to_digit(16);
            for pair in hex.chunks_exact(2) {
                match (nibble(pair[0]), nibble(pair[1])) {
                    (Some(hi), Some(lo)) => data.push((hi << 4 | lo) as u8),
                    _ => return Err(format!("line {}: bad hex", n + 2)),
                }
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

/// Replays a recorded run on a fresh device: injects every logged arrival
/// at its recorded cycle, ticks exactly the recorded cycle count, and
/// returns everything the device delivered. Determinism makes this exact —
/// the log holds only *accepted* injections, so each one succeeds at the
/// same cycle it did live, and every downstream effect (trace, ledger,
/// diagnostics) reproduces bit-for-bit.
///
/// `dev` must be built by the same factory as the recorded run (same
/// config, firmware, LB).
pub fn replay<D: Device + ?Sized>(log: &EventLog, dev: &mut D) -> Vec<Packet> {
    let mut source = log.replay_port();
    let mut delivered = Vec::new();
    while dev.now() < log.cycles {
        pump(dev, &mut source);
        dev.tick();
        dev.drain(&mut |_, pkt| delivered.push(pkt));
    }
    delivered
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
        // Even byte length, but not ASCII: an error, not a slicing panic.
        assert!(EventLog::parse_text("rosebud-events v1 cycles=10\n5 0 0 0 a\u{e9}b\n").is_err());
    }

    #[test]
    #[should_panic(expected = "recorded in order")]
    fn event_log_enforces_cycle_order() {
        let mut gen = FixedSizeGen::new(64, 1);
        let mut log = EventLog::new();
        log.push(10, gen.generate(0, 10));
        log.push(9, gen.generate(1, 9));
    }
}
