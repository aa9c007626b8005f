//! The Pigasus multi-pattern string + port matching engine model.
//!
//! Reproduces the accelerator the paper ports in §7.1 / Appendix A: the
//! Pigasus string matcher (16 engines per RPU, each consuming one payload
//! byte per cycle) plus the port matcher, behind the exact MMIO register
//! protocol of the firmware in Appendix B:
//!
//! 1. firmware writes the payload's packet-memory address (`ACC_DMA_ADDR`),
//!    length (`ACC_DMA_LEN`), the TCP/UDP ports (`ACC_PIG_PORTS`), the
//!    matcher state mask (`ACC_PIG_STATE_*`), the slot (`ACC_PIG_SLOT`), and
//!    kicks the job with `ACC_PIG_CTRL = 1`;
//! 2. the engine streams the payload from packet memory at
//!    `bytes_per_cycle`; matches surface in a result FIFO in stream order;
//! 3. firmware polls `ACC_PIG_MATCH`, reads `ACC_PIG_RULE_ID` (non-zero =
//!    match, zero = end-of-packet) and `ACC_PIG_SLOT`, and releases each
//!    entry with `ACC_PIG_CTRL = 2`.

use std::sync::Arc;

use rosebud_kernel::Fifo;

use crate::aho::{AhoCorasick, Pattern};
use crate::interface::{Accelerator, RegRead, ResourceUsage};

/// `ACC_PIG_CTRL` (write): 1 = start job, 2 = release result entry.
pub const PIG_CTRL_REG: u32 = 0x00;
/// `ACC_PIG_MATCH` (read): non-zero when a result entry is available.
pub const PIG_MATCH_REG: u32 = 0x00;
/// `ACC_DMA_LEN` (write): payload length in bytes.
pub const PIG_DMA_LEN_REG: u32 = 0x04;
/// `ACC_DMA_ADDR` (write): payload address in packet memory.
pub const PIG_DMA_ADDR_REG: u32 = 0x08;
/// `ACC_PIG_PORTS` (write): `src_port << 16 | dst_port`.
pub const PIG_PORTS_REG: u32 = 0x0c;
/// `ACC_PIG_STATE` low word (write).
pub const PIG_STATE_L_REG: u32 = 0x10;
/// `ACC_PIG_STATE` high word (write): `0x01FF_FFFF` for TCP, 0 for UDP.
pub const PIG_STATE_H_REG: u32 = 0x14;
/// `ACC_PIG_SLOT` (write: job's slot; read: slot of the head result).
pub const PIG_SLOT_REG: u32 = 0x18;
/// `ACC_PIG_RULE_ID` (read): head result's rule id, 0 for end-of-packet.
pub const PIG_RULE_ID_REG: u32 = 0x1c;
/// `ACC_DMA_STAT` (read): low byte = busy, next byte = done count.
pub const PIG_DMA_STAT_REG: u32 = 0x78;
/// `ACC_PIG_PORTS` raw form (write): the L4 ports word exactly as firmware
/// loads it with `lw` from the packet — big-endian wire bytes in a
/// little-endian word. The hardware normalizes; this matches the Appendix B
/// C code's `ACC_PIG_PORTS = *(unsigned int *)slot->l4_header.tcp_hdr`.
pub const PIG_PORTS_RAW_REG: u32 = 0x20;

/// One IDS rule: a fast pattern plus optional port constraints, the shape of
/// the Snort fast-pattern rules Pigasus compiles into its engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Rule identifier (non-zero).
    pub id: u32,
    /// The content fast pattern.
    pub pattern: Vec<u8>,
    /// Match only this source port, if set.
    pub src_port: Option<u16>,
    /// Match only this destination port, if set.
    pub dst_port: Option<u16>,
}

impl Rule {
    /// Creates a rule matching `pattern` on any port.
    ///
    /// # Panics
    ///
    /// Panics if `id` is 0 or `pattern` is empty (see [`Pattern::new`]).
    pub fn new(id: u32, pattern: &[u8]) -> Self {
        assert!(id != 0, "rule id 0 is reserved");
        assert!(!pattern.is_empty(), "empty rule pattern");
        Self {
            id,
            pattern: pattern.to_vec(),
            src_port: None,
            dst_port: None,
        }
    }

    /// Restricts the rule to a destination port (the common Snort shape,
    /// e.g. `-> any 80`).
    pub fn with_dst_port(mut self, port: u16) -> Self {
        self.dst_port = Some(port);
        self
    }

    /// Restricts the rule to a source port.
    pub fn with_src_port(mut self, port: u16) -> Self {
        self.src_port = Some(port);
        self
    }
}

/// A compiled rule set: the string automaton plus the port-matcher tables.
///
/// The compiled parts sit behind one `Arc`, so a clone — one per RPU when a
/// box is built — shares them: a box holds one table however many lanes
/// scan with it.
#[derive(Debug, Clone)]
pub struct RuleSet(Arc<Compiled>);

#[derive(Debug)]
struct Compiled {
    rules: Vec<Rule>,
    automaton: AhoCorasick,
    /// `(id, src_port, dst_port)` of every rule, sorted by id: the port
    /// matcher's table.
    ports: Vec<(u32, Option<u16>, Option<u16>)>,
}

impl RuleSet {
    /// Compiles `rules` into the automaton + port tables.
    ///
    /// # Panics
    ///
    /// Panics if `rules` is empty or contains duplicate ids.
    pub fn compile(rules: Vec<Rule>) -> Self {
        assert!(!rules.is_empty(), "rule set must not be empty");
        let mut ports: Vec<_> = rules
            .iter()
            .map(|r| (r.id, r.src_port, r.dst_port))
            .collect();
        ports.sort_unstable_by_key(|&(id, ..)| id);
        if let Some(w) = ports.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("duplicate rule id {}", w[0].0);
        }
        let patterns: Vec<Pattern> = rules
            .iter()
            .map(|r| Pattern::new(r.id, &r.pattern))
            .collect();
        let automaton = AhoCorasick::build(&patterns);
        Self(Arc::new(Compiled {
            rules,
            automaton,
            ports,
        }))
    }

    /// The rules, in compile order.
    pub(crate) fn rules(&self) -> &[Rule] {
        &self.0.rules
    }

    /// The string automaton.
    pub fn automaton(&self) -> &AhoCorasick {
        &self.0.automaton
    }

    /// Whether `rule_id`'s port constraints accept the given ports — the
    /// port-matcher stage.
    pub(crate) fn ports_accept(&self, rule_id: u32, src_port: u16, dst_port: u16) -> bool {
        let ports = &self.0.ports;
        ports
            .binary_search_by_key(&rule_id, |&(id, ..)| id)
            .is_ok_and(|i| {
                let (_, src, dst) = ports[i];
                src.is_none_or(|p| p == src_port) && dst.is_none_or(|p| p == dst_port)
            })
    }

    /// All rule ids whose pattern occurs in `payload` and whose port
    /// constraints accept `(src_port, dst_port)` — the functional ground
    /// truth used by verification tests and by the CPU baseline.
    pub fn matches(&self, payload: &[u8], src_port: u16, dst_port: u16) -> Vec<u32> {
        let mut out = Vec::new();
        self.automaton().scan(payload, |m| {
            if self.ports_accept(m.id, src_port, dst_port) {
                out.push(m.id);
            }
        });
        out
    }
}

/// One entry in the matcher's result FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MatchEvent {
    /// Packet slot the job was tagged with.
    pub(crate) slot: u8,
    /// Matched rule id; 0 marks end-of-packet.
    pub(crate) rule_id: u32,
}

#[derive(Debug, Clone)]
struct Job {
    addr: u32,
    len: u32,
    ports: u32,
    slot: u8,
}

#[derive(Debug, Clone)]
struct ActiveJob {
    slot: u8,
    /// Matches (end positions in stream order) still to surface.
    pending: std::collections::VecDeque<crate::aho::Match>,
    len: u32,
    pos: u32,
}

/// The hardware model of the ported Pigasus engine.
///
/// `engines` matches the paper's parameterization: the original design used
/// 32 string-matching engines for the whole FPGA; the Rosebud port fits 16
/// per RPU (§7.1.2), each consuming one byte per cycle, so the model streams
/// `engines` bytes of payload per tick.
pub struct PigasusMatcher {
    rules: RuleSet,
    engines: u32,
    job_queue: Fifo<Job>,
    active: Option<ActiveJob>,
    results: Fifo<MatchEvent>,
    // Staged register writes.
    reg_addr: u32,
    reg_len: u32,
    reg_ports: u32,
    reg_state_l: u32,
    reg_state_h: u32,
    reg_slot: u32,
    done_count: u32,
}

impl std::fmt::Debug for PigasusMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PigasusMatcher")
            .field("engines", &self.engines)
            .field("rules", &self.rules.rules().len())
            .field("queued_jobs", &self.job_queue.len())
            .field("results", &self.results.len())
            .finish()
    }
}

impl PigasusMatcher {
    /// Creates the engine with a compiled rule set and `engines` parallel
    /// string engines (bytes per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `engines` is 0.
    pub fn new(rules: RuleSet, engines: u32) -> Self {
        assert!(engines > 0, "need at least one engine");
        Self {
            rules,
            engines,
            job_queue: Fifo::new(8),
            active: None,
            results: Fifo::new(32),
            reg_addr: 0,
            reg_len: 0,
            reg_ports: 0,
            reg_state_l: 0,
            reg_state_h: 0,
            reg_slot: 0,
            done_count: 0,
        }
    }

    fn start_job(&mut self, job: Job, pmem: &[u8]) {
        // Both bounds are firmware MMIO writes: a range past the end of
        // packet memory (or of the address space) scans an empty payload,
        // and the job still reports EoP after `len / engines` cycles.
        let start = job.addr as usize;
        let payload = start
            .checked_add(job.len as usize)
            .and_then(|end| pmem.get(start..end))
            .unwrap_or(&[]);
        let src_port = (job.ports >> 16) as u16;
        let dst_port = job.ports as u16;
        let mut pending = std::collections::VecDeque::new();
        self.rules.automaton().scan(payload, |m| {
            if self.rules.ports_accept(m.id, src_port, dst_port) {
                pending.push_back(m);
            }
        });
        self.active = Some(ActiveJob {
            slot: job.slot,
            pending,
            len: job.len,
            pos: 0,
        });
    }
}

impl Accelerator for PigasusMatcher {
    fn name(&self) -> &str {
        "pigasus-mpse"
    }

    fn read_reg(&mut self, offset: u32) -> RegRead {
        match offset {
            PIG_MATCH_REG => RegRead::fast(u32::from(!self.results.is_empty())),
            PIG_RULE_ID_REG => RegRead::fast(self.results.front().map_or(0, |e| e.rule_id)),
            PIG_SLOT_REG => RegRead::fast(self.results.front().map_or(0, |e| u32::from(e.slot))),
            PIG_DMA_STAT_REG => {
                // Low byte: busy flag; byte 1: completed-job count; byte 2:
                // free entries in the wrapper's job FIFO (A.2: "we add basic
                // hardware queues (FIFOs) per accelerator in this wrapper").
                let busy = u32::from(self.is_busy());
                let free = self.job_queue.free() as u32;
                RegRead::fast(busy | (self.done_count.min(255) << 8) | (free << 16))
            }
            _ => RegRead::fast(0),
        }
    }

    fn write_reg(&mut self, offset: u32, value: u32) {
        match offset {
            PIG_CTRL_REG => match value & 0xff {
                1 => {
                    let job = Job {
                        addr: self.reg_addr,
                        len: self.reg_len,
                        ports: self.reg_ports,
                        slot: self.reg_slot as u8,
                    };
                    // A full queue drops the kick; firmware checks DMA_STAT
                    // before over-committing (the wrapper FIFOs of A.2).
                    let _ = self.job_queue.push(job);
                }
                2 => {
                    let _ = self.results.pop();
                }
                _ => {}
            },
            PIG_DMA_LEN_REG => self.reg_len = value,
            PIG_DMA_ADDR_REG => self.reg_addr = value,
            PIG_PORTS_REG => self.reg_ports = value,
            PIG_PORTS_RAW_REG => {
                // Raw lw of [src_hi, src_lo, dst_hi, dst_lo]: normalize to
                // src << 16 | dst in host order.
                let b = value.to_le_bytes();
                self.reg_ports = (u32::from(b[0]) << 24)
                    | (u32::from(b[1]) << 16)
                    | (u32::from(b[2]) << 8)
                    | u32::from(b[3]);
            }
            PIG_STATE_L_REG => self.reg_state_l = value,
            PIG_STATE_H_REG => self.reg_state_h = value,
            PIG_SLOT_REG => self.reg_slot = value,
            _ => {}
        }
    }

    fn tick(&mut self, pmem: &[u8]) {
        if self.active.is_none() {
            if let Some(job) = self.job_queue.pop() {
                self.start_job(job, pmem);
            }
        }
        let Some(active) = &mut self.active else {
            return;
        };
        let advance = self.engines.min(active.len - active.pos);
        active.pos += advance;
        // Surface matches whose end position the stream has passed.
        while let Some(front) = active.pending.front() {
            if (front.end as u32) < active.pos {
                if self.results.is_full() {
                    // Result FIFO backpressure stalls the engine.
                    return;
                }
                let m = active.pending.pop_front().expect("front checked");
                let _ = self.results.push(MatchEvent {
                    slot: active.slot,
                    rule_id: m.id,
                });
            } else {
                break;
            }
        }
        if active.pos >= active.len && active.pending.is_empty() {
            if self.results.is_full() {
                return; // EoP waits for FIFO space too.
            }
            let slot = active.slot;
            let _ = self.results.push(MatchEvent { slot, rule_id: 0 });
            self.done_count += 1;
            self.active = None;
        }
    }

    fn is_busy(&self) -> bool {
        self.active.is_some() || !self.job_queue.is_empty()
    }

    fn load_table(&mut self, _offset: u32, _data: &[u8]) {
        // The real engine's URAM rule tables are written at runtime through
        // the packet-distribution subsystem (§7.1.2). The model's automaton
        // is rebuilt via `PigasusMatcher::new` (or a PR swap) instead.
    }

    fn reset(&mut self) {
        self.job_queue.flush();
        self.results.flush();
        self.active = None;
        self.done_count = 0;
    }

    fn resources(&self) -> ResourceUsage {
        // Calibrated to Table 3 (16 engines: 36012 LUTs, 49364 FFs, 56 BRAM,
        // 22 URAM, 80 DSP), scaling linearly in the engine count like the
        // parameterized Pigasus generator.
        let e = self.engines;
        ResourceUsage {
            luts: 2000 + e * 2126,
            regs: 3000 + e * 2898,
            bram: 8 + e * 3,
            uram: 6 + e, // rule tables + per-engine stream buffers
            dsp: e * 5,  // hash computation for table addressing (§7.1.2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_rules() -> RuleSet {
        RuleSet::compile(vec![
            Rule::new(100, b"attack"),
            Rule::new(200, b"evil").with_dst_port(80),
            Rule::new(300, b"worm").with_src_port(6666),
        ])
    }

    fn drain(m: &mut PigasusMatcher, pmem: &[u8], max_ticks: usize) -> Vec<MatchEvent> {
        let mut out = Vec::new();
        for _ in 0..max_ticks {
            m.tick(pmem);
            while m.read_reg(PIG_MATCH_REG).value != 0 {
                let rule_id = m.read_reg(PIG_RULE_ID_REG).value;
                let slot = m.read_reg(PIG_SLOT_REG).value as u8;
                m.write_reg(PIG_CTRL_REG, 2);
                out.push(MatchEvent { slot, rule_id });
                if rule_id == 0 {
                    return out;
                }
            }
        }
        out
    }

    fn kick(m: &mut PigasusMatcher, addr: u32, len: u32, ports: u32, slot: u32) {
        m.write_reg(PIG_DMA_ADDR_REG, addr);
        m.write_reg(PIG_DMA_LEN_REG, len);
        m.write_reg(PIG_PORTS_REG, ports);
        m.write_reg(PIG_STATE_H_REG, 0x01FF_FFFF);
        m.write_reg(PIG_SLOT_REG, slot);
        m.write_reg(PIG_CTRL_REG, 1);
    }

    #[test]
    fn raw_ports_register_normalizes_byte_order() {
        let mut m = PigasusMatcher::new(simple_rules(), 16);
        let mut pmem = vec![0u8; 256];
        pmem[0..4].copy_from_slice(b"evil");
        // Wire bytes for src 1234, dst 80, as lw would load them.
        let raw = u32::from_le_bytes([(1234u16 >> 8) as u8, (1234u16 & 0xff) as u8, 0, 80]);
        m.write_reg(PIG_DMA_ADDR_REG, 0);
        m.write_reg(PIG_DMA_LEN_REG, 4);
        m.write_reg(crate::mpse::PIG_PORTS_RAW_REG, raw);
        m.write_reg(PIG_SLOT_REG, 1);
        m.write_reg(PIG_CTRL_REG, 1);
        let events = drain(&mut m, &pmem, 50);
        assert_eq!(events[0].rule_id, 200, "dst-port-80 rule must fire");
    }

    #[test]
    fn finds_pattern_and_reports_eop() {
        let mut m = PigasusMatcher::new(simple_rules(), 16);
        let mut pmem = vec![0u8; 1024];
        pmem[100..117].copy_from_slice(b"here is an attack");
        kick(&mut m, 100, 17, (1234 << 16) | 80, 5);
        let events = drain(&mut m, &pmem, 100);
        assert_eq!(
            events,
            vec![
                MatchEvent {
                    slot: 5,
                    rule_id: 100
                },
                MatchEvent {
                    slot: 5,
                    rule_id: 0
                }
            ]
        );
    }

    #[test]
    fn port_constraints_filter_matches() {
        let mut m = PigasusMatcher::new(simple_rules(), 16);
        let mut pmem = vec![0u8; 256];
        pmem[0..4].copy_from_slice(b"evil");
        // dst port 443: rule 200 requires 80, so only EoP.
        kick(&mut m, 0, 4, (1234 << 16) | 443, 1);
        let events = drain(&mut m, &pmem, 50);
        assert_eq!(
            events,
            vec![MatchEvent {
                slot: 1,
                rule_id: 0
            }]
        );
        // dst port 80 matches.
        kick(&mut m, 0, 4, (1234 << 16) | 80, 2);
        let events = drain(&mut m, &pmem, 50);
        assert_eq!(events[0].rule_id, 200);
    }

    #[test]
    fn streaming_rate_sets_completion_time() {
        let mut m = PigasusMatcher::new(simple_rules(), 16);
        let pmem = vec![0u8; 4096];
        kick(&mut m, 0, 1600, 0, 0);
        // 1600 bytes at 16 B/cycle = 100 ticks; EoP must not surface before.
        let mut done_at = None;
        for t in 1..=200 {
            m.tick(&pmem);
            if m.read_reg(PIG_MATCH_REG).value != 0 {
                done_at = Some(t);
                break;
            }
        }
        assert_eq!(done_at, Some(100));
    }

    #[test]
    fn match_surfaces_when_stream_reaches_it() {
        let mut m = PigasusMatcher::new(simple_rules(), 16);
        let mut pmem = vec![0u8; 2048];
        pmem[1000..1006].copy_from_slice(b"attack");
        kick(&mut m, 0, 1600, 0, 3);
        // The match ends at offset 1005 → surfaces on tick 63 (pos 1008).
        let mut seen_at = None;
        for t in 1..=200 {
            m.tick(&pmem);
            if m.read_reg(PIG_MATCH_REG).value != 0 {
                seen_at = Some(t);
                break;
            }
        }
        assert_eq!(seen_at, Some(1008 / 16));
        assert_eq!(m.read_reg(PIG_RULE_ID_REG).value, 100);
    }

    #[test]
    fn jobs_queue_behind_active_one() {
        let mut m = PigasusMatcher::new(simple_rules(), 16);
        let mut pmem = vec![0u8; 512];
        pmem[0..6].copy_from_slice(b"attack");
        kick(&mut m, 0, 160, 0, 1);
        kick(&mut m, 0, 160, 0, 2);
        assert!(m.is_busy());
        let first = drain(&mut m, &pmem, 100);
        let second = drain(&mut m, &pmem, 100);
        assert_eq!(first.last().unwrap().slot, 1);
        assert_eq!(second.last().unwrap().slot, 2);
        assert_eq!(first[0].rule_id, 100);
        assert_eq!(second[0].rule_id, 100);
        assert!(!m.is_busy());
    }

    #[test]
    fn a_job_past_the_address_space_scans_nothing_and_reports_eop() {
        // Firmware can post any address and length; their sum overflows
        // `u32` here. The job scans an empty payload and still takes
        // `len / engines` cycles to report EoP.
        let mut m = PigasusMatcher::new(simple_rules(), 16);
        let pmem = vec![0u8; 256];
        kick(&mut m, 0xFFFF_FF00, 0x200, 0, 4);
        let mut done_at = None;
        for t in 1..=100 {
            m.tick(&pmem);
            if m.read_reg(PIG_MATCH_REG).value != 0 {
                done_at = Some(t);
                break;
            }
        }
        assert_eq!(done_at, Some(0x200 / 16));
        assert_eq!(m.read_reg(PIG_RULE_ID_REG).value, 0, "EoP, no match");
        assert_eq!(m.read_reg(PIG_SLOT_REG).value, 4);
    }

    #[test]
    fn ports_accept_looks_rules_up_by_id() {
        let rules = simple_rules();
        assert!(rules.ports_accept(100, 1, 1));
        assert!(rules.ports_accept(200, 1, 80));
        assert!(!rules.ports_accept(200, 1, 81));
        assert!(rules.ports_accept(300, 6666, 1));
        assert!(!rules.ports_accept(300, 6667, 1));
        assert!(!rules.ports_accept(150, 1, 80), "unknown id");
    }

    #[test]
    #[should_panic(expected = "duplicate rule id 7")]
    fn duplicate_rule_ids_rejected() {
        let _ = RuleSet::compile(vec![
            Rule::new(7, b"a"),
            Rule::new(3, b"b"),
            Rule::new(7, b"c"),
        ]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = PigasusMatcher::new(simple_rules(), 16);
        let pmem = vec![0u8; 512];
        kick(&mut m, 0, 100, 0, 1);
        m.tick(&pmem);
        m.reset();
        assert!(!m.is_busy());
        assert_eq!(m.read_reg(PIG_MATCH_REG).value, 0);
    }

    #[test]
    fn ruleset_functional_matches() {
        let rules = simple_rules();
        let ids = rules.matches(b"an evil attack worm", 6666, 80);
        assert_eq!(ids, vec![200, 100, 300]);
        let ids = rules.matches(b"an evil attack worm", 1, 1);
        assert_eq!(ids, vec![100]);
    }

    #[test]
    fn resources_match_table3_at_16_engines() {
        let m = PigasusMatcher::new(simple_rules(), 16);
        let r = m.resources();
        assert!((r.luts as i64 - 36012).abs() < 100, "luts {}", r.luts);
        assert!((r.regs as i64 - 49364).abs() < 100, "regs {}", r.regs);
        assert_eq!(r.bram, 56);
        assert_eq!(r.uram, 22);
        assert_eq!(r.dsp, 80);
    }
}
