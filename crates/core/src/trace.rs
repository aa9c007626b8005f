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
//! Two exporters:
//!
//! * [`Tracer::compact_text`] — one line per event, fully deterministic for
//!   a given seed; this is what the golden-trace regression suite diffs.
//! * [`Tracer::perfetto_json`] — the Chrome/Perfetto Trace Event format, for
//!   interactive timeline inspection (`chrome://tracing`, <https://ui.perfetto.dev>).

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
            let _ = write!(out, "@{cycle} ");
            match *ev {
                TraceEvent::LbAssign {
                    port,
                    rpu,
                    slot,
                    packet_id,
                    len,
                } => {
                    let _ = write!(
                        out,
                        "lb.assign port={port} rpu={rpu} slot={slot} pkt={packet_id} len={len}"
                    );
                }
                TraceEvent::RxFifoHighWater { port, bytes } => {
                    let _ = write!(out, "rxfifo.hw port={port} bytes={bytes}");
                }
                TraceEvent::TxFifoHighWater { port, frames } => {
                    let _ = write!(out, "txfifo.hw port={port} frames={frames}");
                }
                TraceEvent::DescRx { rpu, slot, len } => {
                    let _ = write!(out, "desc.rx rpu={rpu} slot={slot} len={len}");
                }
                TraceEvent::DescTx {
                    rpu,
                    tag,
                    port,
                    len,
                } => {
                    let _ = write!(out, "desc.tx rpu={rpu} tag={tag} port={port} len={len}");
                }
                TraceEvent::DescDrop { rpu, tag } => {
                    let _ = write!(out, "desc.drop rpu={rpu} tag={tag}");
                }
                TraceEvent::DmaStart { rpu, to_host, len } => {
                    let _ = write!(
                        out,
                        "dma.start rpu={rpu} dir={} len={len}",
                        if to_host { "to-host" } else { "to-rpu" }
                    );
                }
                TraceEvent::DmaComplete {
                    rpu,
                    started,
                    to_host,
                    len,
                } => {
                    let _ = write!(
                        out,
                        "dma.done rpu={rpu} dir={} len={len} dur={}",
                        if to_host { "to-host" } else { "to-rpu" },
                        cycle.saturating_sub(started),
                    );
                }
                TraceEvent::RpuStateChange { rpu, state } => {
                    let _ = write!(out, "rpu.state rpu={rpu} state={state}");
                }
                TraceEvent::LbEnableMask { mask } => {
                    let _ = write!(out, "lb.mask mask={mask:#x}");
                }
                TraceEvent::CounterSample { rpu, perf } => {
                    let _ = write!(
                        out,
                        "ctr rpu={rpu} sw={} ret={} stall={} memwait={} bp={} rx={} tx={} drop={}",
                        perf.sw_cycles,
                        perf.instret,
                        perf.stall_cycles,
                        perf.mem_wait_cycles,
                        perf.backpressure_stalls,
                        perf.rx_frames,
                        perf.tx_frames,
                        perf.drops,
                    );
                }
            }
            out.push('\n');
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "# dropped {} events past the buffer cap", self.dropped);
        }
        out
    }

    /// Exports the trace in the Chrome/Perfetto Trace Event JSON format.
    ///
    /// Fabric events (LB, FIFOs) land in process 0, per-RPU events in
    /// process 1 with one thread per RPU. DMA transfers become duration
    /// (`"X"`) events; counter samples become counter (`"C"`) tracks.
    /// `ns_per_cycle` converts cycle stamps into the format's microsecond
    /// timebase (pass [`crate::RosebudConfig::ns_per_cycle`]).
    pub fn perfetto_json(&self, ns_per_cycle: f64) -> String {
        let ts = |cycle: Cycle| cycle as f64 * ns_per_cycle / 1000.0;
        let mut entries: Vec<String> = Vec::with_capacity(self.events.len() + 8);
        entries.push(
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"fabric\"}}"
                .to_string(),
        );
        entries.push(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"rpus\"}}"
                .to_string(),
        );
        for i in 0..self.rx_fifo_hw.len() {
            entries.push(format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"port{i}\"}}}}"
            ));
        }
        for i in 0..self.dma_open.len() {
            entries.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"rpu{i}\"}}}}"
            ));
        }
        for &(cycle, ref ev) in &self.events {
            let t = ts(cycle);
            let line = match *ev {
                TraceEvent::LbAssign {
                    port,
                    rpu,
                    slot,
                    packet_id,
                    len,
                } => format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{port},\"ts\":{t:.4},\"s\":\"t\",\
                     \"name\":\"lb.assign\",\"args\":{{\"rpu\":{rpu},\"slot\":{slot},\
                     \"pkt\":{packet_id},\"len\":{len}}}}}"
                ),
                TraceEvent::RxFifoHighWater { port, bytes } => format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":{port},\"ts\":{t:.4},\
                     \"name\":\"rx_fifo{port}\",\"args\":{{\"bytes\":{bytes}}}}}"
                ),
                TraceEvent::TxFifoHighWater { port, frames } => format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":{port},\"ts\":{t:.4},\
                     \"name\":\"tx_queue{port}\",\"args\":{{\"frames\":{frames}}}}}"
                ),
                TraceEvent::DescRx { rpu, slot, len } => format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{rpu},\"ts\":{t:.4},\"s\":\"t\",\
                     \"name\":\"desc.rx\",\"args\":{{\"slot\":{slot},\"len\":{len}}}}}"
                ),
                TraceEvent::DescTx {
                    rpu,
                    tag,
                    port,
                    len,
                } => format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{rpu},\"ts\":{t:.4},\"s\":\"t\",\
                     \"name\":\"desc.tx\",\"args\":{{\"tag\":{tag},\"port\":{port},\
                     \"len\":{len}}}}}"
                ),
                TraceEvent::DescDrop { rpu, tag } => format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{rpu},\"ts\":{t:.4},\"s\":\"t\",\
                     \"name\":\"desc.drop\",\"args\":{{\"tag\":{tag}}}}}"
                ),
                // The start instant is implicit in the completion's "X"
                // duration event; still emit it so cancelled DMAs (trace
                // ends mid-flight) remain visible.
                TraceEvent::DmaStart { rpu, to_host, len } => format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{rpu},\"ts\":{t:.4},\"s\":\"t\",\
                     \"name\":\"dma.start\",\"args\":{{\"to_host\":{to_host},\
                     \"len\":{len}}}}}"
                ),
                TraceEvent::DmaComplete {
                    rpu,
                    started,
                    to_host,
                    len,
                } => {
                    let dur = ts(cycle) - ts(started);
                    format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{rpu},\"ts\":{:.4},\
                         \"dur\":{dur:.4},\"name\":\"dma\",\"args\":{{\
                         \"to_host\":{to_host},\"len\":{len}}}}}",
                        ts(started),
                    )
                }
                TraceEvent::RpuStateChange { rpu, state } => format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{rpu},\"ts\":{t:.4},\"s\":\"t\",\
                     \"name\":\"state:{state}\",\"args\":{{}}}}"
                ),
                TraceEvent::LbEnableMask { mask } => format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{t:.4},\
                     \"name\":\"lb_enabled\",\"args\":{{\"rpus\":{}}}}}",
                    mask.count_ones(),
                ),
                TraceEvent::CounterSample { rpu, perf } => format!(
                    "{{\"ph\":\"C\",\"pid\":1,\"tid\":{rpu},\"ts\":{t:.4},\
                     \"name\":\"rpu{rpu}.perf\",\"args\":{{\"stall\":{},\
                     \"memwait\":{},\"instret\":{},\"bp\":{}}}}}",
                    perf.stall_cycles, perf.mem_wait_cycles, perf.instret, perf.backpressure_stalls,
                ),
            };
            entries.push(line);
        }
        let mut out = String::with_capacity(entries.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(&entries.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}
