//! What the benchmark measures: the five workloads and the metric tables.
//! `BENCHMARK.json` at the repo root states the same names, units, directions
//! and bounds; a unit test in `main.rs` keeps the two in step.

/// The five workloads. Each stresses a different layer, so that for every
/// optimisation one workload exercises its mechanism and another bypasses
/// it (the "why" strings say which).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fwd64Sat,
    Fwd1500Sat,
    Duty256Light,
    Ids800Attack,
    Fw256LiveUds,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Fwd64Sat,
        Workload::Fwd1500Sat,
        Workload::Duty256Light,
        Workload::Ids800Attack,
        Workload::Fw256LiveUds,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fwd64Sat => "fwd64_sat",
            Workload::Fwd1500Sat => "fwd1500_sat",
            Workload::Duty256Light => "duty256_light",
            Workload::Ids800Attack => "ids800_attack",
            Workload::Fw256LiveUds => "fw256_live_uds",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload is in the set.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fwd64Sat => {
                "Fig. 7 worst case, 1 packet/cycle on 16 busy-poll RV32 lanes: per-packet fabric cost and ISS steps both count"
            }
            Workload::Fwd1500Sat => {
                "same firmware at 0.066 packet/cycle: per-cycle fixed cost dominates, so a per-packet optimisation must not move it"
            }
            Workload::Duty256Light => {
                "wfi + timer firmware at 5 Gbps: lanes parked most cycles, shows idle-lane cost; ISS nearly bypassed"
            }
            Workload::Ids800Attack => {
                "Pigasus IDS, native firmware, no RV32: MPSE scan and flow generation do the work, so an ISS change predicts no change here"
            }
            Workload::Fw256LiveUds => {
                "firewall behind Shell on real Unix datagram sockets, closed loop: syscalls per simulated cycle, EventLog growth, record then replay"
            }
        }
    }

    /// Length of one measurement window in simulated cycles, sized so a
    /// window is roughly 0.45 s of host time on the 2-core reference host.
    /// Fixed in cycles — not in seconds — so every window simulates the same
    /// thing whatever the host's speed.
    pub fn window_cycles(self) -> u64 {
        match self {
            Workload::Fwd64Sat => 500_000,
            Workload::Fwd1500Sat => 1_000_000,
            Workload::Duty256Light => 1_500_000,
            Workload::Ids800Attack => 600_000,
            Workload::Fw256LiveUds => 200_000,
        }
    }

    /// Offered load of the saturation phase, Gbps of frame bytes. 205 is
    /// above the 2 × 100 G line rate, so the MACs clip it like a tester's.
    pub fn sat_gbps(self) -> f64 {
        match self {
            Workload::Duty256Light => 5.0,
            _ => 205.0,
        }
    }

    /// The paper's throughput for this operating point, where it gives one:
    /// 64 B is capped by 16 RPUs × 16 cycles/packet at 250 Mpps = 128 Gbps
    /// (Fig. 7); 1500 B and the 800 B HW-reorder IDS run at 200 G line rate
    /// less the 24 B per-frame wire overhead (Fig. 7, Fig. 8).
    pub fn paper_gbps(self) -> Option<f64> {
        match self {
            Workload::Fwd64Sat => Some(128.0),
            Workload::Fwd1500Sat => Some(200.0 * 1500.0 / 1524.0),
            Workload::Ids800Attack => Some(200.0 * 800.0 / 824.0),
            Workload::Duty256Light | Workload::Fw256LiveUds => None,
        }
    }

    /// Most timed windows a run makes, however many seconds it is given.
    /// The live workload's event log (and so its peak RSS) grows with every
    /// window, so its count is capped where the reference host gets in
    /// about 11 s: a faster simulator then logs the same amount, not more.
    pub fn max_windows(self) -> usize {
        match self {
            Workload::Fw256LiveUds => 36,
            _ => MAX_WINDOWS,
        }
    }

    pub fn is_live(self) -> bool {
        self == Workload::Fw256LiveUds
    }

    /// Whether the lanes run firmware on the RV32 instruction-set simulator.
    pub fn uses_riscv(self) -> bool {
        self != Workload::Ids800Attack
    }
}

/// Room reserved for window and span records before the first window, so
/// that recording them allocates nothing while a window is being timed.
pub const MAX_WINDOWS: usize = 512;
pub const SPANS_PER_WINDOW: usize = 12;
/// Untimed cycles before the first window: boot, caches, FIFOs filling.
pub const WARM_CYCLES: u64 = 20_000;
/// Windows at the start of the timed phase whose simulated results and
/// allocation counts are reported. A fixed count, so those numbers do not
/// depend on how many windows the host got through in `--seconds`.
pub const DET_WINDOWS: usize = 3;
/// Cycles and offered load of the latency phase, and its drain.
pub const LAT_CYCLES: u64 = 200_000;
pub const LAT_CYCLES_QUICK: u64 = 50_000;
pub const LAT_GBPS: f64 = 20.0;
pub const DRAIN_CYCLES: u64 = 20_000;
/// Cold set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
pub const SETUPS_QUICK: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric. `bound` is the share of the baseline's median by which
/// an end-to-end metric may get worse before it counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Simulated or counted, not timed: repeats exactly for a given seed, so
    /// two runs of the same seed compare exactly, whatever `bound` says.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

/// What a user of the simulator sees, on every workload. Names starting
/// `dev_` are *simulated*: what the modelled 250 MHz device does. The rest
/// are *host* numbers: what the simulator process costs.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s", Better::Lower, 0.25),
    host("sim_cycles_per_s", "1/s", Better::Higher, 0.25),
    host("pkts_per_s", "1/s", Better::Higher, 0.25),
    host("replay_events_per_s", "1/s", Better::Higher, 0.25),
    host("peak_rss_mb", "MB", Better::Lower, 0.15),
    exact("allocs_per_pkt", "count", Better::Lower, 0.02),
    exact("alloc_bytes_per_pkt", "B", Better::Lower, 0.02),
    exact("dev_gbps", "Gbps", Better::Higher, 0.02),
    exact("dev_mpps", "Mpps", Better::Higher, 0.02),
    exact("dev_p50_cycles", "cycles", Better::Lower, 0.02),
    exact("dev_p99_cycles", "cycles", Better::Lower, 0.02),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    host(name, unit, better, 0.0)
}

const fn layer_exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    exact(name, unit, better, 0.0)
}

/// Single-layer metrics from the traced run (layer = crate, measured from
/// outside). A metric reads 0 on a workload that does not exercise it.
/// `README.md` says which end-to-end metric each should move, and where.
pub const PER_LAYER: &[MetricDef] = &[
    layer("bench.trace_overhead_pct", "%", Better::Lower),
    layer("bench.top_span_coverage_pct", "%", Better::Higher),
    layer("bench.egress_ns_per_pkt", "ns", Better::Lower),
    layer("bench.client_ns_per_cycle", "ns", Better::Lower),
    layer("riscv.step_ns", "ns", Better::Lower),
    layer("riscv.step_ns_nocache", "ns", Better::Lower),
    layer("riscv.iss_share", "%", Better::Lower),
    layer("riscv.assemble_ms", "ms", Better::Lower),
    layer("riscv.analyze_ms", "ms", Better::Lower),
    layer("kernel.fifo_ns_per_op", "ns", Better::Lower),
    layer("kernel.linkport_ns_per_frame", "ns", Better::Lower),
    layer("net.gen_ns_per_pkt", "ns", Better::Lower),
    layer("net.gen_allocs_per_pkt", "count", Better::Lower),
    layer("net.genport_refused_share", "%", Better::Lower),
    layer("net.parse_ns_per_pkt", "ns", Better::Lower),
    layer("accel.tick_ns_per_cycle", "ns", Better::Lower),
    layer("accel.reg_ns_per_access", "ns", Better::Lower),
    layer("accel.mpse_ns_per_byte", "ns", Better::Lower),
    layer("accel.compile_ms", "ms", Better::Lower),
    layer("accel.ipmatch_ns_per_lookup", "ns", Better::Lower),
    layer("core.build_ms", "ms", Better::Lower),
    layer("core.tick_ns_per_cycle", "ns", Better::Lower),
    layer("core.pump_ns_per_cycle", "ns", Better::Lower),
    layer("core.host_drain_ns_per_cycle", "ns", Better::Lower),
    layer("core.fabric_ns_per_cycle", "ns", Better::Lower),
    layer("core.lb_assign_ns", "ns", Better::Lower),
    layer("core.lb_assign_hit_ratio", "%", Better::Higher),
    layer("core.allocs_per_cycle_idle", "count", Better::Lower),
    layer("core.eventlog_to_text_mb_per_s", "MB/s", Better::Higher),
    layer("core.eventlog_parse_mb_per_s", "MB/s", Better::Higher),
    layer("core.replay_ns_per_cycle", "ns", Better::Lower),
    layer("core.eventlog_bytes_per_event", "B", Better::Lower),
    layer_exact("core.dev_lb_stall_share", "%", Better::Lower),
    layer_exact("core.dev_instret_per_pkt", "count", Better::Lower),
    layer_exact("core.dev_rpu_stall_share", "%", Better::Lower),
    layer_exact("core.dev_mem_wait_share", "%", Better::Lower),
    layer("apps.firmware_tick_ns_per_cycle", "ns", Better::Lower),
    layer_exact("apps.dev_cycles_per_pkt", "cycles", Better::Lower),
    layer_exact("apps.dev_err_vs_paper_pct", "%", Better::Lower),
    layer("shell.step_ns_per_cycle", "ns", Better::Lower),
    layer("shell.backend_recv_ns_per_cycle", "ns", Better::Lower),
    layer("shell.backend_send_ns_per_frame", "ns", Better::Lower),
    layer("shell.recv_empty_share", "%", Better::Lower),
    layer("shell.overhead_ns_per_cycle", "ns", Better::Lower),
    layer("shell.ring_step_ns_per_cycle", "ns", Better::Lower),
    layer("shell.live_rtt_us_p50", "us", Better::Lower),
    layer("shell.live_rtt_us_p90", "us", Better::Lower),
    layer("shell.live_rtt_us_p99", "us", Better::Lower),
    layer_exact("shell.rtt_cycles_p50", "cycles", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_name;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
