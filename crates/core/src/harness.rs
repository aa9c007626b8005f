//! The tester-FPGA model: paced traffic injection plus sink-side metrics.
//!
//! The paper's experiments use a second VCU1525 as traffic source/sink,
//! cross-connected with two 100 G cables (§6, Appendix D). [`Harness`] plays
//! that role: it paces a [`TrafficGen`] at a target load, injects into the
//! DUT — one box or a rack of them — collects delivered frames, and
//! aggregates throughput and round-trip latency exactly as the paper's host
//! scripts do.

use rosebud_kernel::LatencyStats;
use rosebud_net::{GenPort, Packet, TrafficGen};

use crate::fault::FaultPlan;
use crate::fleet::Fleet;
use crate::ports::{step, Device};
use crate::system::Rosebud;

/// Measured results over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Effective received throughput in Gbps (frame bytes, like the paper's
    /// "RX bytes" readings).
    pub gbps: f64,
    /// Received packet rate in millions of packets per second.
    pub mpps: f64,
    /// Packets received in the window.
    pub packets: u64,
    /// Packets injected in the window.
    pub injected: u64,
    /// Window length in cycles.
    pub cycles: u64,
}

/// Drives a [`Device`] with generated traffic at a target offered load.
///
/// The generator is wrapped in a [`GenPort`] — the paced ingress-port
/// implementation — and each cycle is the step [`replay`](crate::ports::replay)
/// runs too: a [`FaultPlan`]'s due ops, the frames, the tick, the drain. So
/// the harness is just "a port, a plan, and metrics". How the device is
/// paced follows from its type: [`Harness::new`] paces each physical port
/// of a [`Rosebud`], [`Harness::fleet`] gives a [`Fleet`] one shared budget.
pub struct Harness<D: Device = Rosebud> {
    /// The device under test.
    pub sys: D,
    source: GenPort,
    plan: FaultPlan,
    /// How many of the plan's ops have been applied.
    applied: usize,
    /// The lane host-delivered frames arrive on, for a device that has one.
    host_lane: Option<usize>,
    injected: u64,
    received: u64,
    host_received: u64,
    /// Round-trip samples: one set for a [`Rosebud`] (the tester reads all
    /// its interfaces as one), one per box for a [`Fleet`].
    latency: Vec<LatencyStats>,
    window_start_cycle: u64,
    window_injected: u64,
    window_received: u64,
    window_received_bytes: u64,
    collect_output: bool,
    collected: Vec<Packet>,
}

impl Harness {
    /// Creates a harness offering `target_gbps` of aggregate load from
    /// `gen`. Offered load above the MAC line rate is clipped by wire-side
    /// serialization, exactly like a saturating tester.
    ///
    /// Each physical port is paced independently at `target_gbps / ports`,
    /// like the tester FPGA's per-port generator RPUs — one congested port
    /// must not starve the other.
    pub fn new(sys: Rosebud, gen: Box<dyn TrafficGen>, target_gbps: f64) -> Self {
        let ports = sys.config().num_ports;
        let source = GenPort::per_port(gen, target_gbps, sys.config().ns_per_cycle(), ports);
        Self::with_source(sys, source, Some(ports), 1)
    }

    /// Round-trip latency samples in nanoseconds since the window began.
    pub fn latency(&mut self) -> &mut LatencyStats {
        &mut self.latency[0]
    }
}

impl Harness<Fleet> {
    /// Creates a harness offering `target_gbps` of aggregate load from `gen`
    /// to the whole rack: one shared byte budget, a refused frame retried
    /// next cycle. The generator's port rotation must stay within each
    /// box's port count.
    pub fn fleet(fleet: Fleet, gen: Box<dyn TrafficGen>, target_gbps: f64) -> Self {
        let source = GenPort::aggregate(gen, target_gbps, fleet.ns_per_cycle());
        let boxes = fleet.num_boxes();
        Self::with_source(fleet, source, None, boxes)
    }

    /// Round-trip latency samples for frames box `device` delivered since
    /// the window began, in nanoseconds.
    pub fn box_latency(&mut self, device: usize) -> &mut LatencyStats {
        &mut self.latency[device]
    }
}

impl<D: Device> Harness<D> {
    fn with_source(sys: D, source: GenPort, host_lane: Option<usize>, latency_sets: usize) -> Self {
        Self {
            sys,
            source,
            plan: FaultPlan::new(),
            applied: 0,
            host_lane,
            injected: 0,
            received: 0,
            host_received: 0,
            latency: vec![LatencyStats::new(); latency_sets],
            window_start_cycle: 0,
            window_injected: 0,
            window_received: 0,
            window_received_bytes: 0,
            collect_output: false,
            collected: Vec::new(),
        }
    }

    /// Keep delivered frames for inspection (off by default: high-rate runs
    /// would hoard memory).
    pub fn keep_output(mut self, keep: bool) -> Self {
        self.collect_output = keep;
        self
    }

    /// Applies `plan`'s ops through [`Device::apply`], each at its cycle
    /// ahead of that cycle's frames — where a live host's op lands. Replaces
    /// any earlier plan; ops stamped before [`now`](Device::now) apply on
    /// the next tick.
    ///
    /// # Panics
    ///
    /// [`tick`](Self::tick) panics if the device refuses an op.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self.applied = 0;
        self
    }

    /// Advances the device one cycle: apply the plan's due ops, pump the
    /// paced source in, tick, drain what was delivered into the metrics.
    pub fn tick(&mut self) {
        let ns_per_cycle = self.sys.ns_per_cycle();
        let Self {
            sys,
            source,
            plan,
            applied,
            host_lane,
            received,
            host_received,
            latency,
            window_received,
            window_received_bytes,
            collect_output,
            collected,
            ..
        } = self;
        let accepted = step(sys, plan.ops(), applied, source, |now, lane, pkt| {
            // Host-delivered frames count toward absorbed throughput: the
            // paper reads "RX bytes" over physical and virtual interfaces
            // alike (Appendix D).
            if *host_lane == Some(lane) {
                *host_received += 1;
            } else {
                *received += 1;
            }
            *window_received += 1;
            *window_received_bytes += pkt.len();
            // A single set takes every lane.
            let set = lane.min(latency.len() - 1);
            latency[set].record((now.saturating_sub(pkt.ts_gen)) as f64 * ns_per_cycle);
            if *collect_output {
                collected.push(pkt);
            }
        });
        self.injected += accepted;
        self.window_injected += accepted;
    }

    /// Runs `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// Starts a measurement window (call after warm-up).
    pub fn begin_window(&mut self) {
        self.window_start_cycle = self.sys.now();
        self.window_injected = 0;
        self.window_received = 0;
        self.window_received_bytes = 0;
        self.latency.fill(LatencyStats::new());
    }

    /// Results since [`begin_window`](Self::begin_window), aggregated over
    /// every lane.
    pub fn measure(&self) -> Measurement {
        let cycles = self
            .sys
            .now()
            .saturating_sub(self.window_start_cycle)
            .max(1);
        let secs = cycles as f64 * self.sys.ns_per_cycle() / 1e9;
        Measurement {
            gbps: self.window_received_bytes as f64 * 8.0 / secs / 1e9,
            mpps: self.window_received as f64 / secs / 1e6,
            packets: self.window_received,
            injected: self.window_injected,
            cycles,
        }
    }

    /// All-time injected packet count.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// All-time received packet count (host deliveries excluded).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// All-time frames delivered to the host.
    pub fn host_received(&self) -> u64 {
        self.host_received
    }

    /// Frames kept when built with [`keep_output`](Self::keep_output).
    pub fn collected(&self) -> &[Packet] {
        &self.collected
    }

    /// Drains kept frames.
    pub fn take_collected(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.collected)
    }
}
