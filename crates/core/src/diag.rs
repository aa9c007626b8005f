//! Host-side bottleneck diagnosis from the framework's counters (§4.3):
//! "They can shed light to how packets are going through the system, for
//! instance how the LB is distributing packets. Therefore, they can reveal
//! to the developer where the bottlenecks are located."

use rosebud_kernel::Counters;

use crate::config::MAC_RX_FIFO_BYTES;
use crate::fault::Ledger;
use crate::rpu::PerfCounters;
use crate::system::Rosebud;
use crate::verify::LintRecord;

/// How an RPU is misbehaving (§3.4 distinguishes cores that *halted* — trap,
/// `ebreak` — from cores that *hung* — wedged firmware the watchdog timer
/// exists to catch — and both from firmware that runs but sheds packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpuFaultKind {
    /// The core trapped or hit `ebreak`: the halt flag is host-visible.
    Halted,
    /// The core stopped making forward progress with work outstanding —
    /// inferred from a fired watchdog or a wedged region.
    Hung,
    /// The core is alive but dropping an outsized share of its traffic.
    Dropping,
}

impl std::fmt::Display for RpuFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RpuFaultKind::Halted => "halted",
            RpuFaultKind::Hung => "hung",
            RpuFaultKind::Dropping => "dropping",
        })
    }
}

/// Where the diagnosis believes the system is limited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bottleneck {
    /// Traffic is being absorbed without visible backpressure.
    None,
    /// MAC receive FIFOs are filling: the system behind the LB cannot keep
    /// up with the offered load.
    IngressFifo {
        /// The most congested port.
        port: usize,
    },
    /// The LB frequently has a head-of-line packet it cannot place: RPU
    /// slots are the constraint (firmware too slow, or too few RPUs).
    SlotStarvation,
    /// One RPU carries a disproportionate share — the LB policy is
    /// imbalanced for this workload (the hash-LB effect of §7.1.3).
    Imbalance {
        /// The overloaded RPU.
        rpu: usize,
    },
    /// Firmware on some RPU halted, hung, or is dropping traffic.
    RpuFault {
        /// The misbehaving RPU.
        rpu: usize,
        /// How it is misbehaving.
        kind: RpuFaultKind,
    },
}

/// A point-in-time diagnostic snapshot.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// Per-port interface counters.
    pub(crate) ports: Vec<Counters>,
    /// Per-port MAC receive-FIFO occupancy in bytes.
    pub(crate) rx_fifo_bytes: Vec<u64>,
    /// Per-RPU interface counters.
    pub(crate) rpus: Vec<Counters>,
    /// Per-RPU free slots as the LB sees them.
    pub(crate) free_slots: Vec<usize>,
    /// Per-RPU hardware performance counters (§4.3): instructions retired,
    /// stall cycles, memory-port wait cycles.
    pub perf: Vec<PerfCounters>,
    /// Cycles the LB spent unable to place a head-of-line packet.
    pub(crate) lb_stall_cycles: u64,
    /// Packets the LB has placed.
    pub(crate) lb_assigned: u64,
    /// The packet-conservation ledger.
    pub(crate) ledger: Ledger,
    /// Firmware lint reports recorded by the load path, oldest first
    /// (empty under [`crate::LoadPolicy::Off`]).
    pub(crate) lint: Vec<LintRecord>,
    /// The verdict.
    pub(crate) bottleneck: Bottleneck,
}

impl Diagnostics {
    /// Renders the report the way the paper's host utility prints its
    /// status table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "LB: {} assigned, {} stall cycles",
            self.lb_assigned, self.lb_stall_cycles
        );
        for (p, (c, fifo)) in self.ports.iter().zip(&self.rx_fifo_bytes).enumerate() {
            let _ = writeln!(
                out,
                "port {p}: rx {} frames / tx {} frames / rx-fifo {} B",
                c.rx_frames, c.tx_frames, fifo
            );
        }
        for (r, (c, free)) in self.rpus.iter().zip(&self.free_slots).enumerate() {
            let _ = writeln!(
                out,
                "RPU {r}: rx {} tx {} drops {} / {} free slots",
                c.rx_frames, c.tx_frames, c.drops, free
            );
        }
        for (r, p) in self.perf.iter().enumerate() {
            let _ = writeln!(
                out,
                "RPU {r} perf: {} retired / {} stall cycles / {} mem-wait / {} backpressure",
                p.instret, p.stall_cycles, p.mem_wait_cycles, p.backpressure_stalls
            );
        }
        for rec in &self.lint {
            // Break the errors down by check id so a denied reload names the
            // failing analysis (e.g. `[protocol 1, taint 2]`) at a glance.
            let mut by_check = std::collections::BTreeMap::<String, usize>::new();
            for d in &rec.report.diagnostics {
                if d.severity == rosebud_riscv::Severity::Error {
                    *by_check.entry(d.check.to_string()).or_default() += 1;
                }
            }
            let breakdown = if by_check.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> = by_check
                    .iter()
                    .map(|(check, n)| format!("{check} {n}"))
                    .collect();
                format!(" [{}]", parts.join(", "))
            };
            let _ = writeln!(
                out,
                "lint: RPU {} @{}: {} error(s){breakdown}, {} warning(s){}",
                rec.rpu,
                rec.cycle,
                rec.report.error_count(),
                rec.report.warning_count(),
                if rec.denied { " — load DENIED" } else { "" },
            );
        }
        let _ = writeln!(out, "ledger: {}", self.ledger);
        let _ = writeln!(out, "bottleneck: {:?}", self.bottleneck);
        out
    }
}

/// Per-box health summary inside a [`FleetDiagnostics`] snapshot.
#[derive(Debug, Clone)]
pub struct BoxHealth {
    /// The fleet device index.
    pub(crate) device: usize,
    /// Whether the box's ring points are in rotation.
    pub(crate) in_rotation: bool,
    /// Whether the shell is frozen by an injected box crash.
    pub crashed: bool,
    /// Frames the box delivered (ports + host), lifetime including reloads.
    pub(crate) delivered: u64,
    /// Frames the box dropped with an accounted reason, lifetime.
    pub(crate) dropped: u64,
    /// Frames in flight inside the box right now.
    pub(crate) in_flight: u64,
    /// Frames queued on the front link toward the box (serializer + wire).
    pub(crate) front_queue: u64,
    /// Completed whole-box reloads.
    pub(crate) reloads: u64,
}

/// A point-in-time diagnostic snapshot of a whole fleet — the per-box
/// rollup of what [`Diagnostics`] reports for one box, plus the fleet-wide
/// conservation ledger and flow-disturbance accounting.
#[derive(Debug, Clone)]
pub struct FleetDiagnostics {
    /// Per-box health, indexed by device.
    pub boxes: Vec<BoxHealth>,
    /// The fleet-wide conservation ledger (see [`crate::Fleet::ledger`]).
    pub(crate) ledger: Ledger,
    /// Frames in flight fleet-wide (front links plus in-box).
    pub(crate) in_flight: u64,
    /// Distinct flows the front LB has steered.
    pub(crate) flows_seen: u64,
    /// Flows whose steering changed box at least once.
    pub(crate) flows_resteered: u64,
    /// Completed box failovers.
    pub(crate) failovers: usize,
}

impl FleetDiagnostics {
    /// Renders the fleet status table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for b in &self.boxes {
            let _ = writeln!(
                out,
                "box {}: {}{} / {} delivered / {} dropped / {} in flight / \
                 {} queued at front / {} reload(s)",
                b.device,
                if b.in_rotation {
                    "in rotation"
                } else {
                    "drained"
                },
                if b.crashed { " (crashed)" } else { "" },
                b.delivered,
                b.dropped,
                b.in_flight,
                b.front_queue,
                b.reloads,
            );
        }
        let _ = writeln!(
            out,
            "fleet ledger: {} in_flight={}",
            self.ledger, self.in_flight
        );
        let _ = writeln!(
            out,
            "flows: {} seen, {} re-steered; {} failover(s) completed",
            self.flows_seen, self.flows_resteered, self.failovers,
        );
        out
    }
}

impl Rosebud {
    /// Takes a diagnostic snapshot and classifies the dominant bottleneck.
    pub fn diagnostics(&self) -> Diagnostics {
        let ports: Vec<Counters> = (0..self.cfg.num_ports)
            .map(|p| self.port_counters(p))
            .collect();
        let rx_fifo_bytes: Vec<u64> = (0..self.cfg.num_ports)
            .map(|p| self.rx_fifo_bytes(p))
            .collect();
        let rpus: Vec<Counters> = (0..self.cfg.num_rpus)
            .map(|r| self.rpu_counters(r))
            .collect();
        let free_slots: Vec<usize> = (0..self.cfg.num_rpus)
            .map(|r| self.tracker().free_count(r))
            .collect();
        let perf: Vec<PerfCounters> = (0..self.cfg.num_rpus)
            .map(|r| self.rpus()[r].perf())
            .collect();

        let bottleneck = self.classify(&ports, &rx_fifo_bytes, &rpus, &free_slots);
        Diagnostics {
            ports,
            rx_fifo_bytes,
            rpus,
            free_slots,
            perf,
            lb_stall_cycles: self.lb_stall_cycles(),
            lb_assigned: self.lb_assigned(),
            ledger: self.ledger(),
            lint: self.lint_log().to_vec(),
            bottleneck,
        }
    }

    fn classify(
        &self,
        _ports: &[Counters],
        rx_fifo_bytes: &[u64],
        rpus: &[Counters],
        free_slots: &[usize],
    ) -> Bottleneck {
        // A halted, hung, or drop-heavy RPU dominates any throughput
        // symptom. Halted beats hung beats dropping: a trap is definitive,
        // a fired watchdog with work outstanding is strong, heavy drops are
        // circumstantial.
        for r in 0..rpus.len() {
            if self.rpus()[r].is_halted() {
                return Bottleneck::RpuFault {
                    rpu: r,
                    kind: RpuFaultKind::Halted,
                };
            }
        }
        for (r, &free) in free_slots.iter().enumerate() {
            let wedged = self.rpus()[r].watchdog_fires() > 0
                || (self.rpus()[r].is_hung() && free < self.cfg.slots_per_rpu);
            if wedged {
                return Bottleneck::RpuFault {
                    rpu: r,
                    kind: RpuFaultKind::Hung,
                };
            }
        }
        for (r, c) in rpus.iter().enumerate() {
            if c.drops > c.rx_frames / 10 + 8 {
                return Bottleneck::RpuFault {
                    rpu: r,
                    kind: RpuFaultKind::Dropping,
                };
            }
        }
        // Full ingress FIFO: something downstream cannot keep up.
        if let Some((port, &bytes)) = rx_fifo_bytes.iter().enumerate().max_by_key(|(_, &b)| b) {
            if bytes * 2 >= MAC_RX_FIFO_BYTES {
                // Distinguish imbalance from global starvation by slot
                // distribution: starvation empties every RPU's free pool;
                // imbalance empties a few while others stay fresh.
                let starved = free_slots.iter().filter(|&&f| f == 0).count();
                let roomy = free_slots
                    .iter()
                    .filter(|&&f| f > self.cfg.slots_per_rpu / 2)
                    .count();
                if starved > 0 && roomy > 0 {
                    let rpu = free_slots
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &f)| f)
                        .map(|(r, _)| r)
                        .unwrap_or(0);
                    return Bottleneck::Imbalance { rpu };
                }
                if self.lb_stall_cycles() > 0 && starved > 0 {
                    return Bottleneck::SlotStarvation;
                }
                return Bottleneck::IngressFifo { port };
            }
        }
        Bottleneck::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lb::HashLb;
    use crate::system::RpuProgram;
    use crate::{Desc, Firmware, Harness, RosebudConfig, RpuIo};
    use rosebud_net::FixedSizeGen;

    struct PacedForwarder {
        cycles: u64,
    }
    impl Firmware for PacedForwarder {
        fn tick(&mut self, io: &mut RpuIo<'_>) {
            if let Some(desc) = io.rx_pop() {
                io.charge(self.cycles);
                io.send(Desc {
                    port: desc.port ^ 1,
                    ..desc
                });
            }
        }
    }

    fn system(rpus: usize, fw_cycles: u64, lb: Box<dyn crate::LoadBalancer>) -> Rosebud {
        Rosebud::builder(RosebudConfig::with_rpus(rpus))
            .load_balancer(lb)
            .firmware(move |_| RpuProgram::Native(Box::new(PacedForwarder { cycles: fw_cycles })))
            .build()
            .unwrap()
    }

    #[test]
    fn healthy_system_reports_no_bottleneck() {
        let sys = system(8, 15, Box::new(crate::RoundRobinLb::new()));
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(512, 2)), 20.0);
        h.run(30_000);
        let diag = h.sys.diagnostics();
        assert_eq!(diag.bottleneck, Bottleneck::None, "{}", diag.render());
    }

    #[test]
    fn slow_firmware_shows_slot_starvation_or_full_fifo() {
        // 400 cycles/packet on 4 RPUs ≈ 2.5 Mpps against a 60 Gbps offered
        // load of 256 B frames (≈29 Mpps): the FIFOs must fill.
        let sys = system(4, 400, Box::new(crate::RoundRobinLb::new()));
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 60.0);
        h.run(120_000);
        let diag = h.sys.diagnostics();
        assert!(
            matches!(
                diag.bottleneck,
                Bottleneck::SlotStarvation | Bottleneck::IngressFifo { .. }
            ),
            "{}",
            diag.render()
        );
    }

    #[test]
    fn halted_rpu_reported_as_fault() {
        let sys = system(4, 10, Box::new(crate::RoundRobinLb::new()));
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 10.0);
        h.run(5_000);
        // Simulate a crash: halt RPU 2 via a firmware fault stand-in — load
        // an image that faults immediately.
        let bad = rosebud_riscv::assemble(".word 0xffffffff").unwrap();
        h.sys
            .apply(crate::HostOp::LoadFirmware { rpu: 2, image: bad })
            .unwrap();
        h.run(5_000);
        let diag = h.sys.diagnostics();
        assert_eq!(
            diag.bottleneck,
            Bottleneck::RpuFault {
                rpu: 2,
                kind: RpuFaultKind::Halted
            },
            "{}",
            diag.render()
        );
    }

    #[test]
    fn hung_rpu_reported_as_hung_not_halted() {
        let sys = system(4, 10, Box::new(crate::RoundRobinLb::new()));
        let hang = crate::FaultKind::FirmwareHang { rpu: 1 };
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 10.0)
            .faults(crate::FaultPlan::new().at(5_001, hang));
        h.run(10_000);
        let diag = h.sys.diagnostics();
        assert_eq!(
            diag.bottleneck,
            Bottleneck::RpuFault {
                rpu: 1,
                kind: RpuFaultKind::Hung
            },
            "{}",
            diag.render()
        );
    }

    #[test]
    fn dropping_rpu_reported_as_dropping() {
        struct Shedder;
        impl Firmware for Shedder {
            fn tick(&mut self, io: &mut RpuIo<'_>) {
                if let Some(desc) = io.rx_pop() {
                    io.send(Desc { len: 0, ..desc }); // zero-length = drop
                }
            }
        }
        let sys = Rosebud::builder(RosebudConfig::with_rpus(4))
            .load_balancer(Box::new(crate::RoundRobinLb::new()))
            .firmware(|r| {
                if r == 3 {
                    RpuProgram::Native(Box::new(Shedder))
                } else {
                    RpuProgram::Native(Box::new(PacedForwarder { cycles: 10 }))
                }
            })
            .build()
            .unwrap();
        let mut h = Harness::new(sys, Box::new(FixedSizeGen::new(256, 2)), 10.0);
        h.run(20_000);
        let diag = h.sys.diagnostics();
        assert_eq!(
            diag.bottleneck,
            Bottleneck::RpuFault {
                rpu: 3,
                kind: RpuFaultKind::Dropping
            },
            "{}",
            diag.render()
        );
    }

    #[test]
    fn single_flow_on_hash_lb_reports_imbalance() {
        // One elephant flow pins everything to one RPU whose firmware is
        // slower than the offered rate: its slots starve while others idle.
        let sys = system(8, 200, Box::new(HashLb::new()));
        let gen = FixedSizeGen::new(512, 2).with_flows(1);
        let mut h = Harness::new(sys, Box::new(gen), 60.0);
        h.run(150_000);
        let diag = h.sys.diagnostics();
        assert!(
            matches!(diag.bottleneck, Bottleneck::Imbalance { .. }),
            "{}",
            diag.render()
        );
    }

    #[test]
    fn render_is_humane() {
        let sys = system(2, 10, Box::new(crate::RoundRobinLb::new()));
        let text = sys.diagnostics().render();
        assert!(text.contains("RPU 0"));
        assert!(text.contains("bottleneck"));
    }
}
