//! Cycle-stamped event tracing for the whole simulated system (§4.3).
//!
//! The paper's observability pitch is that Rosebud's host-readable counters
//! "reveal to the developer where the bottlenecks are located". End-of-run
//! aggregates ([`crate::Diagnostics`]) answer *where*; this module answers
//! *when*: a [`Tracer`] installed via [`crate::Rosebud::enable_tracing`]
//! records a cycle-stamped event for every load-balancer assignment,
//! descriptor delivery and send, host-DMA start/completion, RPU lifecycle
//! transition, RX/TX FIFO high-water mark, and periodic per-RPU hardware
//! performance counter sample.
//!
//! A trace shows what the device did, never who asked: a supervisor's rungs
//! reach it only as the host ops they apply, so a supervised run and an
//! unsupervised replay of those ops export the same trace.
//!
//! Tracing is strictly opt-in: with no tracer installed the hooks reduce to
//! an `Option::is_some` test on a field that is `None`, so the simulation's
//! hot path is unchanged (the micro benchmark pins this down).
//!
//! Two exporters read one field list per event (`TraceEvent::fields`: name,
//! lane, kind and ordered `key = value` fields), computed only at export:
//!
//! * [`Tracer::compact_text`] — one line per event, fully deterministic for
//!   a given seed; this is what the golden-trace regression suite diffs.
//! * [`Tracer::perfetto_json`] — the Chrome/Perfetto Trace Event format, for
//!   interactive timeline inspection (`chrome://tracing`, <https://ui.perfetto.dev>).

use std::fmt;

use rosebud_kernel::json::Json;
use rosebud_kernel::Cycle;

use crate::rpu::PerfCounters;

/// Tuning for an installed [`Tracer`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Cycles between per-RPU performance-counter samples; 0 disables
    /// sampling.
    pub counter_interval: Cycle,
    /// Also enable per-PC cycle attribution on every RV32 core (the firmware
    /// profile of §4.3 / §3.4 debugging).
    pub pc_profile: bool,
    /// Hard cap on buffered events; once reached, further events are counted
    /// in [`Tracer::dropped_events`] instead of recorded.
    pub max_events: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            counter_interval: 4096,
            pc_profile: true,
            max_events: 1 << 20,
        }
    }
}

/// One recorded event. The cycle stamp lives alongside the event in the
/// tracer's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The LB placed a head-of-line packet onto an RPU slot.
    LbAssign {
        /// Ingress port (`port::HOST` for the host's virtual interface).
        port: u8,
        /// Chosen RPU.
        rpu: u8,
        /// Allocated slot.
        slot: u8,
        /// The packet's generator-assigned id.
        packet_id: u64,
        /// Original frame length in bytes.
        len: u32,
    },
    /// A port's MAC receive FIFO reached a new occupancy high-water mark.
    RxFifoHighWater {
        /// The port.
        port: u8,
        /// New high-water occupancy in bytes.
        bytes: u64,
    },
    /// A port's egress pipeline reached a new queued-frame high-water mark.
    TxFifoHighWater {
        /// The port.
        port: u8,
        /// New high-water depth in frames.
        frames: u32,
    },
    /// The DMA engine delivered a packet descriptor into an RPU (lifecycle:
    /// slot → descriptor).
    DescRx {
        /// Receiving RPU.
        rpu: u8,
        /// Slot the packet landed in.
        slot: u8,
        /// Delivered length in bytes.
        len: u32,
    },
    /// Firmware committed a send and the descriptor left on the egress link
    /// (lifecycle: descriptor → wire).
    DescTx {
        /// Sending RPU.
        rpu: u8,
        /// Descriptor tag (slot, or `SELF_TAG` for firmware-originated).
        tag: u8,
        /// Destination port.
        port: u8,
        /// Frame length in bytes.
        len: u32,
    },
    /// Firmware dropped a packet with a zero-length send.
    DescDrop {
        /// Dropping RPU.
        rpu: u8,
        /// Descriptor tag.
        tag: u8,
    },
    /// An RPU's host-DMA request entered the PCIe pipeline (§4.2).
    DmaStart {
        /// Requesting RPU.
        rpu: u8,
        /// `true` for RPU→host writes, `false` for host→RPU reads.
        to_host: bool,
        /// Transfer length in bytes.
        len: u32,
    },
    /// The host-DRAM access completed and the DMA interrupt was raised.
    DmaComplete {
        /// Requesting RPU.
        rpu: u8,
        /// Cycle the request entered the pipeline.
        started: Cycle,
        /// Transfer direction.
        to_host: bool,
        /// Transfer length in bytes.
        len: u32,
    },
    /// An RPU's lifecycle state changed (running/draining/reconfiguring/
    /// halted — PR, crashes and host ops all surface here).
    RpuStateChange {
        /// The RPU.
        rpu: u8,
        /// The new state's name.
        state: &'static str,
    },
    /// The LB enable mask changed (an RPU was taken out of or returned to
    /// rotation).
    LbEnableMask {
        /// New enable bitmask.
        mask: u64,
    },
    /// A periodic per-RPU hardware performance-counter sample.
    CounterSample {
        /// The sampled RPU.
        rpu: u8,
        /// Cumulative counters at the sample point.
        perf: PerfCounters,
    },
}

/// The cycle-stamped event recorder. Install with
/// [`crate::Rosebud::enable_tracing`], retrieve with
/// [`crate::Rosebud::take_tracer`].
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    events: Vec<(Cycle, TraceEvent)>,
    dropped: u64,
    rx_fifo_hw: Vec<u64>,
    tx_fifo_hw: Vec<u32>,
    dma_open: Vec<Option<(Cycle, bool, u32)>>,
    last_state: Vec<&'static str>,
    last_mask: Option<u64>,
}

impl Tracer {
    pub(crate) fn new(cfg: TraceConfig, num_rpus: usize, num_ports: usize) -> Self {
        Self {
            cfg,
            events: Vec::new(),
            dropped: 0,
            rx_fifo_hw: vec![0; num_ports],
            tx_fifo_hw: vec![0; num_ports],
            dma_open: vec![None; num_rpus],
            // Empty sentinel: the first periodic scan records each RPU's
            // actual state once, so every trace opens with the system shape.
            last_state: vec![""; num_rpus],
            last_mask: None,
        }
    }

    /// The configuration this tracer was installed with.
    pub(crate) fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// All recorded `(cycle, event)` pairs, in record order (which is also
    /// cycle order).
    pub fn events(&self) -> &[(Cycle, TraceEvent)] {
        &self.events
    }

    /// Events discarded after the buffer hit `max_events`.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Every descriptor delivered to RPU `rpu`, in delivery order, as
    /// `(delivered, sent)`: the cycle of its `DescRx`, and the cycle of the
    /// last `DescTx` or `DescDrop` that carried its slot as the tag before
    /// the slot was delivered again — `None` while the firmware still holds
    /// it. `sent - delivered` is the packet's firmware residency, the
    /// per-packet count of the paper's single-RPU simulations (§7.1.4); the
    /// spacing of a burst's `sent` cycles is its steady-state cost.
    ///
    /// # Examples
    ///
    /// Appendix A.4's single-RPU simulation is a one-RPU box, read off its
    /// trace:
    ///
    /// ```
    /// use rosebud_core::{Desc, Firmware, Rosebud, RosebudConfig, RpuIo, RpuProgram, TraceConfig};
    /// use rosebud_net::PacketBuilder;
    ///
    /// struct Echo;
    /// impl Firmware for Echo {
    ///     fn tick(&mut self, io: &mut RpuIo<'_>) {
    ///         if let Some(desc) = io.rx_pop() {
    ///             io.send(Desc { port: 1, ..desc });
    ///             io.charge(15);
    ///         }
    ///     }
    /// }
    ///
    /// let mut sys = Rosebud::builder(RosebudConfig::with_rpus(1))
    ///     .firmware(|_| RpuProgram::Native(Box::new(Echo)))
    ///     .build()
    ///     .unwrap();
    /// sys.enable_tracing(TraceConfig::default());
    /// sys.inject(PacketBuilder::new().tcp(1, 2).pad_to(64).build()).unwrap();
    /// sys.run(1000);
    /// let [(delivered, Some(sent))] = sys.tracer().unwrap().residencies(0)[..] else {
    ///     panic!("one packet in, one send out");
    /// };
    /// assert_eq!(sent - delivered, 0, "popped and sent in the cycle it arrived");
    /// ```
    pub fn residencies(&self, rpu: usize) -> Vec<(Cycle, Option<Cycle>)> {
        let mut spans = Vec::new();
        let mut open: [Option<usize>; 256] = [None; 256];
        for &(cycle, ref ev) in &self.events {
            match *ev {
                TraceEvent::DescRx { rpu: r, slot, .. } if usize::from(r) == rpu => {
                    open[usize::from(slot)] = Some(spans.len());
                    spans.push((cycle, None));
                }
                TraceEvent::DescTx { rpu: r, tag, .. } | TraceEvent::DescDrop { rpu: r, tag }
                    if usize::from(r) == rpu =>
                {
                    if let Some(i) = open[usize::from(tag)] {
                        spans[i].1 = Some(cycle);
                    }
                }
                _ => {}
            }
        }
        spans
    }

    pub(crate) fn record(&mut self, now: Cycle, event: TraceEvent) {
        if self.events.len() >= self.cfg.max_events {
            self.dropped += 1;
            return;
        }
        self.events.push((now, event));
    }

    pub(crate) fn note_rx_fifo(&mut self, now: Cycle, port: usize, bytes: u64) {
        if bytes > self.rx_fifo_hw[port] {
            self.rx_fifo_hw[port] = bytes;
            self.record(
                now,
                TraceEvent::RxFifoHighWater {
                    port: port as u8,
                    bytes,
                },
            );
        }
    }

    pub(crate) fn note_tx_fifo(&mut self, now: Cycle, port: usize, frames: u32) {
        if frames > self.tx_fifo_hw[port] {
            self.tx_fifo_hw[port] = frames;
            self.record(
                now,
                TraceEvent::TxFifoHighWater {
                    port: port as u8,
                    frames,
                },
            );
        }
    }

    pub(crate) fn note_state(&mut self, now: Cycle, rpu: usize, state: &'static str) {
        if self.last_state[rpu] != state {
            self.last_state[rpu] = state;
            self.record(
                now,
                TraceEvent::RpuStateChange {
                    rpu: rpu as u8,
                    state,
                },
            );
        }
    }

    pub(crate) fn note_mask(&mut self, now: Cycle, mask: u64) {
        if self.last_mask != Some(mask) {
            self.last_mask = Some(mask);
            self.record(now, TraceEvent::LbEnableMask { mask });
        }
    }

    pub(crate) fn dma_started(&mut self, now: Cycle, rpu: usize, to_host: bool, len: u32) {
        self.dma_open[rpu] = Some((now, to_host, len));
        self.record(
            now,
            TraceEvent::DmaStart {
                rpu: rpu as u8,
                to_host,
                len,
            },
        );
    }

    pub(crate) fn dma_completed(&mut self, now: Cycle, rpu: usize) {
        if let Some((started, to_host, len)) = self.dma_open[rpu].take() {
            self.record(
                now,
                TraceEvent::DmaComplete {
                    rpu: rpu as u8,
                    started,
                    to_host,
                    len,
                },
            );
        }
    }

    /// The compact deterministic text form: one `@cycle event key=value…`
    /// line per event. Byte-identical across runs with the same seeds; this
    /// is the representation the golden-trace suite snapshots.
    pub fn compact_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.events.len() * 40 + 64);
        out.push_str("# rosebud trace v1\n");
        for &(cycle, ref ev) in &self.events {
            let r = ev.fields(cycle);
            let _ = write!(out, "@{cycle} {}", r.name);
            if let Some((key, index)) = r.lane.field() {
                let _ = write!(out, " {key}={index}");
            }
            for (key, value) in &r.fields {
                let _ = write!(out, " {key}={value}");
            }
            if let Kind::Span { dur } = r.kind {
                let _ = write!(out, " dur={dur}");
            }
            out.push('\n');
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "# dropped {} events past the buffer cap", self.dropped);
        }
        out
    }

    /// Exports the trace in the Chrome/Perfetto Trace Event JSON format,
    /// one entry per line.
    ///
    /// Each event's field list maps by one rule: the lane gives the process
    /// and thread (ports are threads of process 0 "fabric", RPUs threads of
    /// process 1 "rpus", fabric-wide events a thread of process 0 named
    /// `fabric` that no port uses); the kind
    /// gives the phase — an instant (`"i"`), a counter (`"C"`, named with
    /// its lane so every port and RPU keeps its own track), or a span
    /// (`"X"` from its start, with `dur`); the args are the fields.
    /// `ns_per_cycle` converts cycle stamps into the format's microsecond
    /// timebase (pass [`crate::RosebudConfig::ns_per_cycle`]).
    pub fn perfetto_json(&self, ns_per_cycle: f64) -> String {
        let ts = |cycle: Cycle| cycle as f64 * ns_per_cycle / 1000.0;
        let mut json = Json::default();
        json.object(|o| {
            o.key("displayTimeUnit").value("ns");
            o.key("traceEvents").rows(|j| {
                let meta = |j: &mut Json, lane: Lane, what: &str, name: &str| {
                    j.object(|o| {
                        o.key("ph").value("M");
                        o.key("pid").value(lane.pid());
                        o.key("tid").value(lane.tid());
                        o.key("name").value(what).key("args").object(|a| {
                            a.key("name").value(name);
                        });
                    });
                };
                meta(j, Lane::Port(0), "process_name", "fabric");
                meta(j, Lane::Rpu(0), "process_name", "rpus");
                let ports = (0..self.rx_fifo_hw.len() as u8).map(Lane::Port);
                let rpus = (0..self.dma_open.len() as u8).map(Lane::Rpu);
                for lane in ports.chain(rpus).chain([Lane::Fabric]) {
                    meta(j, lane, "thread_name", &lane.track());
                }
                for &(cycle, ref ev) in &self.events {
                    let r = ev.fields(cycle);
                    let (ph, start) = match r.kind {
                        Kind::Instant => ("i", cycle),
                        Kind::Counter => ("C", cycle),
                        Kind::Span { dur } => ("X", cycle - dur),
                    };
                    let name = match r.kind {
                        Kind::Counter => format!("{} {}", r.name, r.lane.track()),
                        _ => r.name.to_string(),
                    };
                    j.object(|o| {
                        o.key("ph").value(ph);
                        o.key("pid").value(r.lane.pid());
                        o.key("tid").value(r.lane.tid());
                        o.key("ts").value(ts(start));
                        match r.kind {
                            Kind::Instant => o.key("s").value("t"),
                            Kind::Counter => o,
                            Kind::Span { .. } => o.key("dur").value(ts(cycle) - ts(start)),
                        };
                        o.key("name").value(name.as_str());
                        o.key("args").object(|a| {
                            for (key, value) in &r.fields {
                                match *value {
                                    Field::Num(n) => a.key(key).value(n),
                                    _ => a.key(key).value(value.to_string().as_str()),
                                };
                            }
                        });
                    });
                }
            });
        });
        format!("{json}\n")
    }
}

/// One event as both exporters see it: its name, the lane it belongs to,
/// its kind, and its other fields in order.
#[derive(Debug)]
struct Record {
    name: &'static str,
    lane: Lane,
    kind: Kind,
    fields: Vec<(&'static str, Field)>,
}

/// Where an event happens: at a port, at an RPU, or across the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Port(u8),
    Rpu(u8),
    Fabric,
}

impl Lane {
    /// The lane as a `key = index` field; the fabric has none.
    fn field(self) -> Option<(&'static str, u8)> {
        match self {
            Lane::Port(p) => Some(("port", p)),
            Lane::Rpu(r) => Some(("rpu", r)),
            Lane::Fabric => None,
        }
    }

    /// The Perfetto process: RPUs are process 1, ports and the fabric 0.
    fn pid(self) -> u8 {
        u8::from(matches!(self, Lane::Rpu(_)))
    }

    /// The Perfetto thread: the port or RPU index; the fabric's own thread
    /// is 255, which no port index reaches.
    fn tid(self) -> u8 {
        self.field().map_or(u8::MAX, |(_, index)| index)
    }

    /// The Perfetto track name: `port1`, `rpu12`, `fabric`.
    fn track(self) -> String {
        self.field()
            .map_or("fabric".into(), |(key, index)| format!("{key}{index}"))
    }
}

/// A moment, a new sample of a running quantity, or an interval of `dur`
/// cycles ending at the event's stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Instant,
    Counter,
    Span { dur: Cycle },
}

/// One field's value: a number, a bit mask (written in hex) or a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Num(u64),
    Hex(u64),
    Name(&'static str),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Num(n) => write!(f, "{n}"),
            Field::Hex(m) => write!(f, "{m:#x}"),
            Field::Name(s) => f.write_str(s),
        }
    }
}

impl TraceEvent {
    /// The event's one spelling, read by [`Tracer::compact_text`] and
    /// [`Tracer::perfetto_json`]; `at` is its cycle stamp. A table: one row
    /// per variant.
    #[rustfmt::skip]
    fn fields(&self, at: Cycle) -> Record {
        use Kind::{Counter, Instant};
        use Lane::{Fabric, Port, Rpu};
        use Field::{Hex, Name};
        fn n(v: impl Into<u64>) -> Field {
            Field::Num(v.into())
        }
        let dir = |to_host| ("dir", Name(if to_host { "to-host" } else { "to-rpu" }));
        let (name, lane, kind, fields) = match *self {
            TraceEvent::LbAssign { port, rpu, slot, packet_id, len } => ("lb.assign", Port(port), Instant,
                vec![("rpu", n(rpu)), ("slot", n(slot)), ("pkt", n(packet_id)), ("len", n(len))]),
            TraceEvent::RxFifoHighWater { port, bytes } => ("rxfifo.hw", Port(port), Counter,
                vec![("bytes", n(bytes))]),
            TraceEvent::TxFifoHighWater { port, frames } => ("txfifo.hw", Port(port), Counter,
                vec![("frames", n(frames))]),
            TraceEvent::DescRx { rpu, slot, len } => ("desc.rx", Rpu(rpu), Instant,
                vec![("slot", n(slot)), ("len", n(len))]),
            TraceEvent::DescTx { rpu, tag, port, len } => ("desc.tx", Rpu(rpu), Instant,
                vec![("tag", n(tag)), ("port", n(port)), ("len", n(len))]),
            TraceEvent::DescDrop { rpu, tag } => ("desc.drop", Rpu(rpu), Instant,
                vec![("tag", n(tag))]),
            // Implicit in the completion's span, but recorded so that a
            // transfer the trace ends inside still shows.
            TraceEvent::DmaStart { rpu, to_host, len } => ("dma.start", Rpu(rpu), Instant,
                vec![dir(to_host), ("len", n(len))]),
            TraceEvent::DmaComplete { rpu, started, to_host, len } => ("dma.done", Rpu(rpu),
                Kind::Span { dur: at.saturating_sub(started) },
                vec![dir(to_host), ("len", n(len))]),
            TraceEvent::RpuStateChange { rpu, state } => ("rpu.state", Rpu(rpu), Instant,
                vec![("state", Name(state))]),
            TraceEvent::LbEnableMask { mask } => ("lb.mask", Fabric, Instant,
                vec![("mask", Hex(mask))]),
            TraceEvent::CounterSample { rpu, perf } => ("ctr", Rpu(rpu), Counter, vec![
                ("sw", n(perf.sw_cycles)), ("ret", n(perf.instret)),
                ("stall", n(perf.stall_cycles)), ("memwait", n(perf.mem_wait_cycles)),
                ("bp", n(perf.backpressure_stalls)), ("rx", n(perf.rx_frames)),
                ("tx", n(perf.tx_frames)), ("drop", n(perf.drops)),
            ]),
        };
        Record { name, lane, kind, fields }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text after `key` in `entry`, up to the first `end`.
    fn after<'a>(entry: &'a str, key: &str, end: char) -> &'a str {
        let rest = entry
            .split_once(key)
            .unwrap_or_else(|| panic!("{key} in {entry}"));
        rest.1.split(end).next().unwrap()
    }

    /// One event of every variant through both exporters: the Perfetto
    /// entry's lane and args are the compact line's fields, its name is the
    /// event's, and a span's `dur` is the compact `dur`.
    #[test]
    fn both_exporters_read_one_field_list() {
        let perf = PerfCounters {
            sw_cycles: 1,
            instret: 2,
            stall_cycles: 3,
            mem_wait_cycles: 4,
            backpressure_stalls: 5,
            rx_frames: 6,
            tx_frames: 7,
            drops: 8,
        };
        let events = [
            TraceEvent::LbAssign {
                port: 1,
                rpu: 2,
                slot: 3,
                packet_id: 4,
                len: 64,
            },
            TraceEvent::RxFifoHighWater { port: 1, bytes: 88 },
            TraceEvent::TxFifoHighWater { port: 0, frames: 3 },
            TraceEvent::DescRx {
                rpu: 2,
                slot: 3,
                len: 64,
            },
            TraceEvent::DescTx {
                rpu: 2,
                tag: 3,
                port: 0,
                len: 64,
            },
            TraceEvent::DescDrop { rpu: 1, tag: 5 },
            TraceEvent::DmaStart {
                rpu: 3,
                to_host: true,
                len: 128,
            },
            TraceEvent::DmaComplete {
                rpu: 3,
                started: 40,
                to_host: false,
                len: 128,
            },
            TraceEvent::RpuStateChange {
                rpu: 0,
                state: "halted",
            },
            TraceEvent::LbEnableMask { mask: 0b1011 },
            TraceEvent::CounterSample { rpu: 3, perf },
        ];
        let mut tracer = Tracer::new(TraceConfig::default(), 4, 2);
        for (i, &ev) in events.iter().enumerate() {
            tracer.record(100 + i as Cycle, ev);
        }
        let text = tracer.compact_text();
        // One microsecond per cycle: Perfetto timestamps read as cycles.
        let json = tracer.perfetto_json(1000.0);
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let entries: Vec<&str> = json.lines().skip(1 + 2 + 2 + 4 + 1).collect();
        let mut spans = 0;
        for (i, ev) in events.iter().enumerate() {
            let r = ev.fields(100 + i as Cycle);
            let mut words = lines[i].split(' ').skip(1);
            assert_eq!(words.next(), Some(r.name));
            let mut want: Vec<&str> = words.collect();
            let entry = entries[i];

            let name = after(entry, "\"name\":\"", '"');
            if r.kind == Kind::Counter {
                assert!(name.starts_with(&format!("{} ", r.name)), "{entry}");
            } else {
                assert_eq!(name, r.name, "{entry}");
            }
            let (pid, tid) = (after(entry, "\"pid\":", ','), after(entry, "\"tid\":", ','));
            let mut got = Vec::new();
            match r.lane {
                Lane::Port(_) => got.push(format!("port={tid}")),
                Lane::Rpu(_) => got.push(format!("rpu={tid}")),
                Lane::Fabric => assert_eq!((pid, tid), ("0", "255")),
            }
            assert_eq!(
                pid,
                if matches!(r.lane, Lane::Rpu(_)) {
                    "1"
                } else {
                    "0"
                }
            );
            let args = after(entry, "\"args\":{", '}');
            got.extend(
                args.split(',')
                    .map(|kv| kv.replace('"', "").replacen(':', "=", 1)),
            );

            if let Kind::Span { dur } = r.kind {
                assert_eq!(want.pop(), Some(format!("dur={dur}").as_str()));
                let span: f64 = after(entry, "\"dur\":", ',').parse().unwrap();
                assert_eq!(span, dur as f64, "{entry}");
                spans += 1;
            }
            assert_eq!(got, want, "{entry} against {}", lines[i]);
        }
        assert_eq!(spans, 1);
    }
}
