//! The device-edge port layer: how traffic reaches and leaves a [`Rosebud`].
//!
//! The simulation core is a pure, cycle-deterministic function of its
//! injected traffic; everything on the far side of a MAC — a paced
//! generator, a pcap replay, a fleet front link, a live socket — implements
//! the [`IngressPort`]/[`EgressPort`] contract from `rosebud_kernel` and is
//! driven through [`pump`]. The thing in the middle is a [`Device`] — a
//! [`Rosebud`], or a [`Fleet`](crate::Fleet) whose lanes are boxes — and the
//! loops over it are written once: [`pump`] moves frames in, and one
//! per-cycle step (ops, frames, tick, drain) is both [`replay`] and
//! [`Harness::tick`](crate::Harness::tick). The split buys two things:
//!
//! * any feeder is "a small port impl", not a change to the core, and
//! * every external arrival, and every host operation applied through
//!   [`Device::apply`], can be recorded as a cycle-stamped event
//!   ([`EventLog`]) and replayed bit-exactly on a fresh system
//!   ([`replay`]) — a live run becomes a reproducible testcase.

use std::io::Write;

use rosebud_kernel::{Cycle, StampedIngress};
pub use rosebud_kernel::{EgressPort, IngressPort, LinkPort, PortClock};
use rosebud_net::Packet;

use crate::host::{Fields, HostOp, HostReply};
use crate::system::Rosebud;

/// What a tester drives: frames in through [`inject`](Self::inject), host
/// operations in through [`apply`](Self::apply), one clock edge per
/// [`tick`](Self::tick), frames out through [`drain`](Self::drain).
/// Everything that crosses the device boundary crosses here.
pub trait Device {
    /// Current cycle.
    fn now(&self) -> Cycle;

    /// Nanoseconds per cycle.
    fn ns_per_cycle(&self) -> f64;

    /// Offers a frame to the device's ingress; a refusal hands the same
    /// frame back and changes nothing.
    fn inject(&mut self, pkt: Packet) -> Result<(), Packet>;

    /// `false` only when every [`inject`](Self::inject) this cycle would be
    /// refused, so a driver may skip offering. The default is `true`.
    fn can_inject(&self) -> bool {
        true
    }

    /// Does a host operation to the device; a refusal says why and changes
    /// nothing. A [`Rosebud`] takes a box's ops, a [`Fleet`](crate::Fleet)
    /// device-scale faults and [`HostOp::Box`]; the default takes none.
    fn apply(&mut self, op: HostOp) -> Result<HostReply, String> {
        Err(format!("this device takes no host operations: {op:?}"))
    }

    /// Advances the device one cycle.
    fn tick(&mut self);

    /// Advances the device through cycles before `to` in which it provably
    /// has nothing to do, exactly as ticking through them with nothing
    /// offered would, and stops where it cannot prove that — so `now()`
    /// ends anywhere from where it was to `to`. For a caller that knows
    /// nothing arrives before `to`, as [`replay`] does. The default
    /// advances nothing.
    fn skip_quiet(&mut self, to: Cycle) {
        let _ = to;
    }

    /// Hands every frame delivered since the last drain to `sink`, each
    /// exactly once, as `(lane, frame)`. The buffers are emptied in place
    /// and keep their capacity, so a caller that drains every cycle costs
    /// the device no allocation.
    fn drain(&mut self, sink: &mut dyn FnMut(usize, Packet));
}

/// Lane `p < num_ports` is physical port `p` (frames a bound
/// [`EgressPort`] took never show up here); lane `num_ports` is the host.
impl Device for Rosebud {
    #[inline]
    fn now(&self) -> Cycle {
        Rosebud::now(self)
    }

    fn ns_per_cycle(&self) -> f64 {
        self.config().ns_per_cycle()
    }

    fn inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        Rosebud::inject(self, pkt)
    }

    #[inline]
    fn can_inject(&self) -> bool {
        Rosebud::can_inject(self)
    }

    fn apply(&mut self, op: HostOp) -> Result<HostReply, String> {
        Rosebud::apply(self, op)
    }

    fn tick(&mut self) {
        Rosebud::tick(self);
    }

    #[inline]
    fn skip_quiet(&mut self, to: Cycle) {
        self.skip_to(to);
    }

    fn drain(&mut self, sink: &mut dyn FnMut(usize, Packet)) {
        self.mac.drain(sink);
        self.host.drain(self.mac.num_ports(), sink);
    }
}

/// Drains `source` into `dev`'s ingress for the current cycle, returning
/// how many frames were accepted.
///
/// It asks both edges before it offers a frame. A source whose
/// [`IngressPort::clock`] says `NotBefore` a later cycle, or a device that
/// would refuse every frame ([`Device::can_inject`]), ends the pump before
/// a poll; and once polling, a frame polled after an acceptance left the
/// device refusing every frame is handed straight back, not offered. A
/// skipped poll would only have returned nothing or frames the device
/// refused, and a skipped offer would have been refused, so neither changes
/// a frame or an acceptance: a port re-offers what it is handed back, and a
/// paced [`GenPort`](rosebud_net::GenPort) replays the cycles it was not
/// polled as cycles whose every offer was refused.
///
/// Otherwise the loop follows the port contract: poll until the source runs
/// dry, hand refused frames back through [`IngressPort::give_back`]. A
/// source that re-offers the *same* frame after a refusal (a replay or link
/// port — the target MAC stays busy all cycle) ends the pump for this
/// cycle; a source that moves on to other traffic (a multi-lane generator)
/// keeps pumping, so a cycle that polls at all polls until dry.
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
    let due = !matches!(source.clock(now), PortClock::NotBefore(at) if at > now);
    if !due || !dev.can_inject() {
        return 0;
    }
    let mut accepted = 0;
    // Whether the device can take a frame; a refusal changes nothing, so
    // only an acceptance can close it.
    let mut open = true;
    let mut last_refused: Option<u64> = None;
    while let Some(pkt) = source.poll(now) {
        let id = pkt.id;
        let pkt = if open {
            match dev.inject(pkt) {
                Ok(()) => {
                    accepted += 1;
                    open = dev.can_inject();
                    continue;
                }
                Err(pkt) => pkt,
            }
        } else {
            pkt
        };
        let stuck = last_refused == Some(id);
        source.give_back(pkt);
        if stuck {
            break;
        }
        last_refused = Some(id);
    }
    accepted
}

/// One recorded external arrival: the frame and the cycle its injection was
/// accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortEvent {
    /// Cycle the receive MAC accepted the frame.
    pub(crate) cycle: Cycle,
    /// The frame, exactly as injected.
    pub pkt: Packet,
}

/// A cycle-stamped record of everything that crossed the device boundary
/// over a run — every accepted arrival, every applied host operation — plus
/// the total cycles ticked: all that is needed to reproduce the run
/// bit-exactly on a fresh system ([`replay`]).
///
/// The text format is line-oriented and versioned. A log of frames alone is
/// `v1`:
///
/// ```text
/// rosebud-events v1 cycles=<total>
/// <cycle> <id> <port> <ts_gen> <frame-hex>
/// ...
/// ```
///
/// A log that holds operations says `v2` and adds one line per op, in cycle
/// order among the frame lines and ahead of the frames of its own cycle —
/// the order a replay acts in:
///
/// ```text
/// rosebud-events v2 cycles=<total>
/// <cycle> op <name> <integer>... [<payload-hex> | -]
/// <cycle> <id> <port> <ts_gen> <frame-hex>
/// ...
/// ```
///
/// `<name>` is the arm (`disable`, `load_firmware`, `fault.host_dma_outage`,
/// …); its fields follow in declaration order, an enum as its index, a
/// frame as `id port ts_gen` + bytes, an image as `base words` + the words
/// and symbol table; an empty payload is `-`. One box's op in a fleet's log
/// is that op's line behind `box.` and the device:
///
/// ```text
/// <cycle> op box.<name> <device> <integer>... [<payload-hex> | -]
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    /// Accepted arrivals in cycle order.
    pub events: Vec<PortEvent>,
    /// Applied host operations in cycle order, each with the cycle it was
    /// applied at — ahead of that cycle's arrivals and tick.
    pub ops: Vec<(Cycle, HostOp)>,
    /// Total cycles the recorded run ticked.
    pub cycles: u64,
}

const HEADER_V1: &str = "rosebud-events v1 cycles=";
const HEADER_V2: &str = "rosebud-events v2 cycles=";
const WRITTEN: &str = "writing to a Vec cannot fail";

fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// The length of `ev`'s line: four numbers, four spaces, two hex digits a
/// byte, `\n`.
fn frame_line_len(ev: &PortEvent) -> usize {
    let p = &ev.pkt;
    digits(ev.cycle)
        + digits(p.id)
        + digits(u64::from(p.port))
        + digits(p.ts_gen)
        + 5
        + 2 * p.data.len()
}

fn write_frame(out: &mut Vec<u8>, ev: &PortEvent) {
    let p = &ev.pkt;
    write!(out, "{} {} {} {} ", ev.cycle, p.id, p.port, p.ts_gen).expect(WRITTEN);
    write_hex(out, p.bytes());
    out.push(b'\n');
}

fn write_hex(out: &mut Vec<u8>, bytes: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for &b in bytes {
        out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
    }
}

/// Byte-wise, so a non-ASCII field is a parse error rather than a `str`
/// slice off a char boundary.
fn parse_hex(hex: &str) -> Result<Vec<u8>, &'static str> {
    let hex = hex.as_bytes();
    if !hex.len().is_multiple_of(2) {
        return Err("odd hex length");
    }
    let nibble = |digit: u8| char::from(digit).to_digit(16);
    let mut data = Vec::with_capacity(hex.len() / 2);
    for pair in hex.chunks_exact(2) {
        match (nibble(pair[0]), nibble(pair[1])) {
            (Some(hi), Some(lo)) => data.push((hi << 4 | lo) as u8),
            _ => return Err("bad hex"),
        }
    }
    Ok(data)
}

/// The writing half of the op codec: appends each field to a log line.
struct OpWriter<'a>(&'a mut Vec<u8>);

impl Fields for OpWriter<'_> {
    fn int(&mut self, v: &mut u64) -> Result<(), String> {
        write!(self.0, " {v}").expect(WRITTEN);
        Ok(())
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), String> {
        self.0.push(b' ');
        if v.is_empty() {
            self.0.push(b'-');
        }
        write_hex(self.0, v);
        Ok(())
    }
}

/// The reading half: takes each field off a log line's remaining tokens.
struct OpReader<'a>(std::str::SplitAsciiWhitespace<'a>);

impl Fields for OpReader<'_> {
    fn int(&mut self, v: &mut u64) -> Result<(), String> {
        let token = self.0.next().ok_or("missing field")?;
        *v = token
            .parse()
            .map_err(|e| format!("bad number {token:?}: {e}"))?;
        Ok(())
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), String> {
        *v = match self.0.next().ok_or("missing payload")? {
            "-" => Vec::new(),
            hex => parse_hex(hex)?,
        };
        Ok(())
    }
}

fn write_op(out: &mut Vec<u8>, cycle: Cycle, op: &HostOp) {
    write!(out, "{cycle} op {}", op.name()).expect(WRITTEN);
    // `fields` serves the reader too, so it wants `&mut`; ops are few.
    let mut op = op.clone();
    op.fields(&mut OpWriter(out))
        .expect("an op's own fields are in range");
    out.push(b'\n');
}

/// The op on a line whose tokens after `<cycle> op` are `fields`.
fn parse_op(mut fields: std::str::SplitAsciiWhitespace<'_>) -> Result<HostOp, String> {
    let name = fields.next().ok_or("missing op name")?;
    let mut op = HostOp::blank(name).ok_or_else(|| format!("unknown op {name:?}"))?;
    let mut reader = OpReader(fields);
    op.fields(&mut reader)?;
    match reader.0.next() {
        None => Ok(op),
        Some(extra) => Err(format!("unexpected {extra:?} after the last field")),
    }
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

    /// Serializes to the versioned text format: `v1`, into one exactly-sized
    /// buffer, unless the log holds operations.
    pub fn to_text(&self) -> String {
        let frames = self.events.iter().map(frame_line_len).sum::<usize>();
        let size = HEADER_V1.len() + digits(self.cycles) + 1 + frames;
        let mut out = Vec::with_capacity(size);
        if self.ops.is_empty() {
            writeln!(out, "{HEADER_V1}{}", self.cycles).expect(WRITTEN);
            for ev in &self.events {
                write_frame(&mut out, ev);
            }
            debug_assert_eq!(out.len(), size);
        } else {
            writeln!(out, "{HEADER_V2}{}", self.cycles).expect(WRITTEN);
            let mut ops = self.ops.iter().peekable();
            for ev in &self.events {
                while let Some((cycle, op)) = ops.next_if(|(cycle, _)| *cycle <= ev.cycle) {
                    write_op(&mut out, *cycle, op);
                }
                write_frame(&mut out, ev);
            }
            for (cycle, op) in ops {
                write_op(&mut out, *cycle, op);
            }
        }
        String::from_utf8(out).expect("decimal digits, names, spaces and hex digits are ASCII")
    }

    /// Parses the text format back, either version.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line — one whose cycle
    /// precedes an earlier line's of its kind included.
    pub fn parse_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty event log")?;
        let (v2, cycles) = match header.strip_prefix(HEADER_V1) {
            Some(cycles) => (false, cycles),
            None => match header.strip_prefix(HEADER_V2) {
                Some(cycles) => (true, cycles),
                None => return Err(format!("bad header: {header:?}")),
            },
        };
        let cycles = cycles
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad cycle count: {e}"))?;
        let mut log = Self {
            cycles,
            ..Self::default()
        };
        for (n, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let at = |e: &dyn std::fmt::Display| format!("line {}: {e}", n + 2);
            let in_order = |last: Option<Cycle>, cycle: Cycle| match last {
                Some(last) if cycle < last => Err(at(&"cycle goes backwards")),
                _ => Ok(()),
            };
            let mut f = line.split_ascii_whitespace();
            let mut field = |name: &str| {
                f.next()
                    .ok_or_else(|| format!("line {}: missing {name}", n + 2))
            };
            let cycle: Cycle = parse_num(field("cycle")?, n)?;
            let id = field("id")?;
            if v2 && id == "op" {
                in_order(log.ops.last().map(|(last, _)| *last), cycle)?;
                log.ops.push((cycle, parse_op(f).map_err(|e| at(&e))?));
                continue;
            }
            let id: u64 = parse_num(id, n)?;
            let port: u8 = parse_num(field("port")?, n)?;
            let ts_gen: Cycle = parse_num(field("ts_gen")?, n)?;
            let data = parse_hex(field("frame bytes")?).map_err(|e| at(&e))?;
            in_order(log.events.last().map(|last| last.cycle), cycle)?;
            let pkt = Packet::new(id, data, port, ts_gen);
            log.events.push(PortEvent { cycle, pkt });
        }
        Ok(log)
    }

    /// The log's arrivals as a replayable ingress port: every event is
    /// delivered at its recorded cycle, then the source reports
    /// [`Exhausted`](PortClock::Exhausted).
    pub(crate) fn replay_port(&self) -> StampedIngress<Packet> {
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

/// One cycle as a tester drives it, in the order a live shell acts: the ops
/// from `ops[*next..]` stamped at or before now, each through
/// [`Device::apply`]; the frames `source` has for this cycle; the clock
/// edge; then everything delivered, to `sink` as `(cycle, lane, frame)`.
/// Returns how many frames were accepted. [`replay`] and
/// [`Harness::tick`](crate::Harness::tick) are this loop, run.
///
/// # Panics
///
/// Panics if `dev` refuses an op: a log or a plan names what the device
/// cannot take.
#[inline]
pub(crate) fn step<D: Device + ?Sized>(
    dev: &mut D,
    ops: &[(Cycle, HostOp)],
    next: &mut usize,
    source: &mut dyn IngressPort<Packet>,
    mut sink: impl FnMut(Cycle, usize, Packet),
) -> u64 {
    let now = dev.now();
    while let Some((at, op)) = ops.get(*next).filter(|(at, _)| *at <= now) {
        if let Err(e) = dev.apply(op.clone()) {
            panic!("{op:?}, stamped {at}, was refused at cycle {now}: {e}");
        }
        *next += 1;
    }
    let accepted = pump(dev, source);
    dev.tick();
    let now = dev.now();
    dev.drain(&mut |lane, pkt| sink(now, lane, pkt));
    accepted
}

/// Replays a recorded run on a fresh device: at each cycle applies the
/// operations logged at it, injects the arrivals logged at it, and ticks —
/// the order a live shell acts in — for exactly the recorded cycle count,
/// and returns everything the device delivered. Between two logged events
/// it lets the device jump its quiet cycles ([`Device::skip_quiet`]), since
/// nothing is offered there. Determinism makes this
/// exact: the log holds only *accepted* injections and *applied*
/// operations, so each one succeeds at the same cycle it did live, and every
/// downstream effect (trace, ledger, diagnostics) reproduces bit-for-bit.
///
/// `dev` must be built by the same factory as the recorded run (same
/// config, firmware, LB).
///
/// # Panics
///
/// Panics if `dev` refuses a logged operation: it is not the device the log
/// was recorded on.
pub fn replay<D: Device + ?Sized>(log: &EventLog, dev: &mut D) -> Vec<Packet> {
    let mut source = log.replay_port();
    let mut next = 0;
    let mut delivered = Vec::new();
    while dev.now() < log.cycles {
        step(dev, &log.ops, &mut next, &mut source, |_, _, pkt| {
            delivered.push(pkt);
        });
        let op = log.ops.get(next).map_or(Cycle::MAX, |(at, _)| *at);
        let frame = match source.clock(dev.now()) {
            PortClock::Ready => dev.now(),
            PortClock::NotBefore(at) => at,
            PortClock::Idle | PortClock::Exhausted => Cycle::MAX,
        };
        dev.skip_quiet(op.min(frame).min(log.cycles));
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosebud_net::{FixedSizeGen, TrafficGen};

    /// Five frames, three cycles apart, over 100 cycles.
    fn frames_only() -> EventLog {
        let mut gen = FixedSizeGen::new(64, 2);
        let mut log = EventLog::new();
        for i in 0..5u64 {
            log.push(i * 3, gen.generate(i, i * 3));
        }
        log.cycles = 100;
        log
    }

    /// [`frames_only`] plus one op of every arm and every fault kind, and two
    /// of them addressed to one box of a fleet — two a cycle.
    fn frames_and_ops() -> EventLog {
        use crate::{FaultKind as F, MemRegion};
        let image = rosebud_riscv::assemble(".equ IO, 0x02000000\nspin: j spin").unwrap();
        let (rpu, device, cycles) = (1, 2, 500);
        let ops = [
            HostOp::LbWrite { addr: 2, value: 1 },
            HostOp::Enable { rpu },
            HostOp::Disable { rpu },
            HostOp::Poke { rpu },
            HostOp::Evict { rpu },
            HostOp::WriteDebug {
                rpu,
                value: u64::MAX,
            },
            HostOp::WriteMem {
                rpu,
                region: MemRegion::AccelMem,
                offset: 64,
                bytes: vec![0xde, 0xad],
            },
            HostOp::WriteHostDram {
                offset: 4096,
                bytes: Vec::new(),
            },
            HostOp::HostFrame(Packet::new(7, vec![0x5a; 60], 1, 3)),
            HostOp::Reload { rpu, gated: true },
            HostOp::ForceReload { rpu },
            HostOp::LoadFirmware { rpu, image },
            HostOp::Fault(F::FirmwareHang { rpu }),
            HostOp::Fault(F::FirmwareCrash { rpu }),
            HostOp::Fault(F::CorruptIngress { rpu, count: 3 }),
            HostOp::Fault(F::RxFifoOverflow { port: 1, cycles }),
            HostOp::Fault(F::HostDmaOutage { cycles }),
            HostOp::Fault(F::BoxCrash { device }),
            HostOp::Fault(F::BoxHostOutage { device, cycles }),
            HostOp::Fault(F::FrontLinkFlap { device, cycles }),
            HostOp::Fault(F::BoxBrownout {
                device,
                cycles,
                factor: 4,
            }),
            HostOp::Box {
                device,
                op: Box::new(HostOp::Fault(F::CorruptIngress { rpu, count: 3 })),
            },
            HostOp::Box {
                device,
                op: Box::new(HostOp::HostFrame(Packet::new(8, vec![0xa5; 60], 0, 4))),
            },
        ];
        let mut log = frames_only();
        log.ops = (0..).map(|i| i / 2).zip(ops).collect();
        log
    }

    #[test]
    fn event_log_round_trips_through_text() {
        let log = frames_only();
        let text = log.to_text();
        assert!(text.starts_with("rosebud-events v1 cycles=100\n0 0 0 0 "));
        assert_eq!(EventLog::parse_text(&text), Ok(log));
    }

    #[test]
    fn a_log_with_ops_round_trips_as_v2() {
        let log = frames_and_ops();
        let text = log.to_text();
        assert_eq!(EventLog::parse_text(&text).as_ref(), Ok(&log));

        // A cycle's ops come ahead of its frames, and read as they are named.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "rosebud-events v2 cycles=100");
        assert_eq!(lines[1], "0 op lb_write 2 1");
        assert_eq!(lines[2], "0 op enable 1");
        assert!(lines[3].starts_with("0 0 0 0 "), "{}", lines[3]);
        assert!(lines.contains(&"3 op write_mem 1 3 64 dead"));
        assert!(lines.contains(&"3 op write_host_dram 4096 -"));
        assert!(lines.contains(&"10 op fault.box_brownout 2 500 4"));
        assert!(lines.contains(&"10 op box.fault.corrupt_ingress 2 1 3"));
        let frame = format!("11 op box.host_frame 2 8 0 4 {}", "a5".repeat(60));
        assert!(lines.contains(&frame.as_str()));

        // The same frames with the ops taken away are a `v1` text again,
        // and either header reads them.
        let frames = EventLog {
            ops: Vec::new(),
            ..log
        };
        assert_eq!(frames, frames_only());
        let v1 = frames.to_text();
        let v2 = v1.replacen(" v1 ", " v2 ", 1);
        assert_eq!(EventLog::parse_text(&v2), Ok(frames));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]
        // The decoder reads files people edit and sockets anyone can write
        // to: whatever is done to a valid text, it answers with an error or
        // with a log that is a fixed point of write-then-read — and never
        // panics, a line whose cycle precedes its predecessor's included.
        #[test]
        fn a_mangled_log_is_an_error_or_a_fixed_point(
            with_ops in 0u8..2,
            edits in proptest::collection::vec(
                (0u8..6, proptest::any::<u32>(), proptest::any::<u32>()),
                1..5,
            ),
        ) {
            let log = if with_ops == 1 { frames_and_ops() } else { frames_only() };
            let mut text = log.to_text().into_bytes();
            for (kind, a, b) in edits {
                if text.is_empty() {
                    break;
                }
                let (a, b) = (a as usize, b as usize);
                let mut lines: Vec<Vec<u8>> =
                    text.split(|c| *c == b'\n').map(<[u8]>::to_vec).collect();
                let n = lines.len();
                match kind {
                    0 => {
                        let at = a % text.len();
                        text[at] ^= 1 << (b % 8);
                        continue;
                    }
                    1 => {
                        text.truncate(a % text.len() + 1);
                        continue;
                    }
                    2 => lines.insert(a % n, lines[b % n].clone()),
                    3 => lines.swap(a % n, b % n),
                    4 => drop(lines.remove(a % n)),
                    // A count no field can hold, or one far larger than
                    // what follows it.
                    _ => {
                        let line = &mut lines[a % n];
                        let mut tokens: Vec<Vec<u8>> =
                            line.split(|c| *c == b' ').map(<[u8]>::to_vec).collect();
                        let huge: &[u8] = if b % 2 == 0 {
                            b"340282366920938463463374607431768211456"
                        } else {
                            b"4611686018427387904"
                        };
                        let at = (b / 2) % tokens.len();
                        tokens[at] = huge.to_vec();
                        *line = tokens.join(&b' ');
                    }
                }
                text = lines.join(&b'\n');
            }
            let text = String::from_utf8_lossy(&text);
            if let Ok(log) = EventLog::parse_text(&text) {
                proptest::prop_assert_eq!(EventLog::parse_text(&log.to_text()), Ok(log));
            }
        }
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
        // Ops are a `v2` thing; unknown, short, long and out-of-order ones
        // are errors there.
        let v2 = |body: &str| EventLog::parse_text(&format!("rosebud-events v2 cycles=10\n{body}"));
        assert!(v2("5 op poke 1\n").is_ok());
        assert!(EventLog::parse_text("rosebud-events v1 cycles=10\n5 op poke 1\n").is_err());
        assert!(v2("5 op frob 1\n").is_err());
        assert!(v2("5 op poke\n").is_err());
        assert!(v2("5 op poke 1 2\n").is_err());
        assert!(v2("5 op reload 1 2\n").is_err());
        assert!(v2("5 op host_frame 1 256 0 00\n").is_err());
        assert!(v2("5 op box.poke 2 1\n").is_ok());
        assert!(v2("5 op box.poke 2\n").is_err());
        assert!(v2("5 op box.box.poke 2 2 1\n").is_err());
        assert!(v2("5 op load_firmware 0 0 4611686018427387904 00\n").is_err());
        assert!(v2("5 op poke 1\n4 op poke 1\n").is_err());
        assert!(v2("5 0 0 0 00\n4 0 0 0 00\n").is_err());
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
