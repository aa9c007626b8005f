//! Passes 2 and 3: abstract interpretation. [`solve`] runs the block
//! transfer function to a widening fixpoint; [`report`] runs it once more
//! over the settled states, this time listening to what it finds.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use crate::cpu::csr;
use crate::isa::{CsrSrc, Instr, MulOp, Reg};

use super::cfg::{Block, Cfg};
use super::init::Init;
use super::interval::{alu_interval, refine_branch, Interval};
use super::report::{Check, Diagnostic, Severity};
use super::spec::{MachineSpec, Where};
use super::state::AbsState;
use super::taint::alu_taint;

/// The settled in-state of every block the fixpoint reached.
pub(super) struct States(BTreeMap<u32, AbsState>);

impl States {
    fn at(&self, block: u32) -> AbsState {
        self.0.get(&block).cloned().unwrap_or_else(AbsState::boot)
    }
}

/// Facts the reporting pass records per block.
#[derive(Debug, Clone, Default)]
pub(super) struct BlockFacts {
    /// Worst-case cycles for the block body (terminator edges excluded).
    body_cycles: u64,
    /// Whether the block pets the watchdog or sleeps.
    pets: bool,
}

/// What the reporting pass learned, for the watchdog and WCET passes (and
/// the entry-point iteration) to read.
#[derive(Debug, Default)]
pub(super) struct Facts {
    blocks: BTreeMap<u32, BlockFacts>,
    /// Constant trap vectors some block installs.
    pub(super) trap_vectors: Vec<u32>,
}

impl Facts {
    pub(super) fn body_cycles(&self, block: u32) -> u64 {
        self.blocks.get(&block).map_or(0, |f| f.body_cycles)
    }

    pub(super) fn pets(&self, block: u32) -> bool {
        self.blocks.get(&block).is_some_and(|f| f.pets)
    }
}

/// What [`exec_block`] reports into when someone is listening: the
/// reporting pass hands one in, the fixpoint passes `None`.
#[derive(Default)]
pub(super) struct Collector {
    diags: Vec<Diagnostic>,
    facts: BlockFacts,
    trap_vectors: Vec<u32>,
}

/// Files one finding with the collector, if there is one. The path witness
/// is filled in by [`report`].
pub(super) fn emit(
    out: &mut Option<&mut Collector>,
    severity: Severity,
    check: Check,
    pc: u32,
    message: String,
) {
    if let Some(c) = out {
        c.diags.push(Diagnostic {
            severity,
            check,
            pc,
            message,
            path: Vec::new(),
        });
    }
}

/// After this many joins into the same block, any interval bound still
/// moving jumps to the lattice extreme: counted loops keep small constants
/// but the chain terminates.
const WIDEN_AFTER: u32 = 16;

/// Abstract interpretation to a fixpoint.
pub(super) fn solve(spec: &MachineSpec, cfg: &Cfg) -> States {
    let mut in_states: BTreeMap<u32, AbsState> = BTreeMap::new();
    let mut work: VecDeque<u32> = VecDeque::new();
    for (&entry, &is_trap) in &cfg.entries {
        let seed = if is_trap {
            AbsState::trap()
        } else {
            AbsState::boot()
        };
        in_states.insert(entry, seed);
        work.push_back(entry);
    }
    let mut join_counts: BTreeMap<u32, u32> = BTreeMap::new();
    while let Some(at) = work.pop_front() {
        let Some(block) = cfg.blocks.get(&at) else {
            continue;
        };
        let mut state = in_states[&at].clone();
        exec_block(spec, block, &mut state, None);
        for &(succ, _) in &block.succs {
            let refined = refine_edge(block, &state, succ);
            match in_states.entry(succ) {
                Entry::Vacant(v) => {
                    v.insert(refined);
                    work.push_back(succ);
                }
                Entry::Occupied(mut o) => {
                    let n = join_counts.entry(succ).or_insert(0);
                    *n += 1;
                    if o.get_mut().join_from(&refined, *n > WIDEN_AFTER) {
                        work.push_back(succ);
                    }
                }
            }
        }
    }
    States(in_states)
}

/// The final pass over the settled states: diagnostics (each with a path
/// witness to its block) and the per-block facts.
pub(super) fn report(spec: &MachineSpec, cfg: &Cfg, states: &States) -> (Vec<Diagnostic>, Facts) {
    let mut diags = Vec::new();
    let mut facts = Facts::default();
    for (&at, block) in &cfg.blocks {
        let mut state = states.at(at);
        let mut found = Collector::default();
        exec_block(spec, block, &mut state, Some(&mut found));
        if spec.protocol.is_some() {
            if let Some(&(pc, Instr::Ebreak)) = block.instrs.last() {
                state.proto.halt(pc, &mut Some(&mut found));
            }
        }
        for mut d in found.diags {
            d.path = cfg.path_to(at);
            diags.push(d);
        }
        facts.trap_vectors.extend(found.trap_vectors);
        facts.blocks.insert(at, found.facts);
    }
    (diags, facts)
}

/// Propagates `state` along the edge `block -> succ`, narrowing intervals
/// (and clearing taint) through the terminating branch's comparison when the
/// edge direction is unambiguous.
fn refine_edge(block: &Block, state: &AbsState, succ: u32) -> AbsState {
    let mut out = state.clone();
    if let Some(&(pc, Instr::Branch { op, rs1, rs2, imm })) = block.instrs.last() {
        let taken = pc.wrapping_add(imm as u32);
        let fall = pc.wrapping_add(4);
        if taken != fall && (succ == taken || succ == fall) {
            refine_branch(&mut out.vals, &mut out.taint, op, rs1, rs2, succ == taken);
        }
    }
    out
}

/// Reads `r` at `pc`, reporting a use the initialization domain cannot
/// vouch for.
fn read(state: &AbsState, r: Reg, pc: u32, out: &mut Option<&mut Collector>) -> Interval {
    match state.init.get(r) {
        Init::Yes => {}
        Init::No => emit(
            out,
            Severity::Error,
            Check::Uninit,
            pc,
            format!("reads {r} (x{}) which no path has initialized", r.0),
        ),
        Init::Maybe => emit(
            out,
            Severity::Warning,
            Check::Uninit,
            pc,
            format!("reads {r} (x{}) which some paths leave uninitialized", r.0),
        ),
    }
    state.get(r)
}

/// Interprets one block from `state`, reporting reads of uninitialized
/// registers, memory-map violations, protocol/taint findings, and
/// per-instruction worst-case cost into `out`.
fn exec_block(
    spec: &MachineSpec,
    block: &Block,
    state: &mut AbsState,
    mut out: Option<&mut Collector>,
) {
    let out = &mut out;
    let n = block.instrs.len();
    for (idx, &(pc, instr)) in block.instrs.iter().enumerate() {
        let is_term = idx + 1 == n;
        let mut cost = spec.cost.base;
        let mut pets = false;
        match instr {
            Instr::Lui { rd, imm } => {
                state.set(rd, Interval::constant((imm << 12) as u32));
                state.taint.set_reg(rd, false);
            }
            Instr::Auipc { rd, imm } => {
                state.set(rd, Interval::constant(pc.wrapping_add((imm << 12) as u32)));
                state.taint.set_reg(rd, false);
            }
            Instr::Jal { rd, .. } => {
                state.set(rd, Interval::constant(pc.wrapping_add(4)));
                state.taint.set_reg(rd, false);
                cost = 0; // charged on the edge
            }
            Instr::Jalr { rd, rs1, .. } => {
                read(state, rs1, pc, out);
                if state.taint.reg(rs1) {
                    emit(
                        out,
                        Severity::Error,
                        Check::Taint,
                        pc,
                        format!(
                            "indirect jump through {rs1} (x{}) whose target is derived from \
                             unsanitized packet bytes (attacker-controlled control flow)",
                            rs1.0
                        ),
                    );
                }
                state.set(rd, Interval::constant(pc.wrapping_add(4)));
                state.taint.set_reg(rd, false);
                cost = spec.cost.jump;
            }
            Instr::Branch { rs1, rs2, imm, .. } => {
                read(state, rs1, pc, out);
                read(state, rs2, pc, out);
                // A backward branch is a loop latch; letting packet
                // bytes pick the trip count hands the attacker the
                // cycle budget.
                if is_term
                    && pc.wrapping_add(imm as u32) <= pc
                    && (state.taint.reg(rs1) || state.taint.reg(rs2))
                {
                    emit(
                        out,
                        Severity::Warning,
                        Check::Taint,
                        pc,
                        "loop-controlling branch compares unsanitized packet bytes; the \
                         iteration count is attacker-controlled"
                            .to_string(),
                    );
                }
                cost = 0; // charged on the edge
            }
            Instr::Load { op, rd, rs1, imm } => {
                let addr = read(state, rs1, pc, out);
                let target = resolve_target(spec, addr, imm);
                let bytes = op.bytes();
                let wait = check_access(spec, pc, rs1, AccessDir::Load, bytes, &target, out);
                let tainted = match target {
                    // Packet buffers live in pmem: every load is a
                    // taint source.
                    Target::Const(_, Where::Pmem) | Target::Range(Where::Pmem) => true,
                    Target::Const(a, Where::Dmem) => state.taint.mem(a),
                    Target::Const(_, Where::Io(off)) => state.proto.load(spec, pc, off & !3, out),
                    _ => false,
                };
                state.set(rd, Interval::TOP);
                state.taint.set_reg(rd, tainted);
                cost = spec.cost.load + wait;
            }
            Instr::Store { op, rs1, rs2, imm } => {
                let addr = read(state, rs1, pc, out);
                read(state, rs2, pc, out);
                let value_tainted = state.taint.reg(rs2);
                let target = resolve_target(spec, addr, imm);
                let bytes = op.bytes();
                let wait = check_access(spec, pc, rs1, AccessDir::Store, bytes, &target, out);
                match target {
                    Target::Const(_, Where::Io(off)) => {
                        pets = spec.watchdog_pet_offset == Some(off);
                        state.proto.store(spec, pc, off & !3, value_tainted, out);
                    }
                    Target::Const(a, Where::Dmem) => {
                        state.taint.store_mem(a, bytes, value_tainted);
                    }
                    _ => {}
                }
                cost = spec.cost.store + wait;
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let a = read(state, rs1, pc, out);
                let ta = state.taint.reg(rs1);
                let b = Interval::constant(imm as u32);
                state.set(rd, alu_interval(op, a, b));
                state.taint.set_reg(rd, alu_taint(op, a, ta, b, false));
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let a = read(state, rs1, pc, out);
                let b = read(state, rs2, pc, out);
                let (ta, tb) = (state.taint.reg(rs1), state.taint.reg(rs2));
                state.set(rd, alu_interval(op, a, b));
                state.taint.set_reg(rd, alu_taint(op, a, ta, b, tb));
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                read(state, rs1, pc, out);
                read(state, rs2, pc, out);
                // Constant folding of M-ops buys nothing for firmware
                // linting; stay conservative.
                let t = state.taint.reg(rs1) || state.taint.reg(rs2);
                state.set(rd, Interval::TOP);
                state.taint.set_reg(rd, t);
                cost = match op {
                    MulOp::Mul | MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => spec.cost.mul,
                    _ => spec.cost.div,
                };
            }
            Instr::Csr { rd, csr, src, .. } => {
                let written = match src {
                    CsrSrc::Reg(rs) => read(state, rs, pc, out),
                    CsrSrc::Imm(v) => Interval::constant(u32::from(v)),
                };
                // `csrw mtvec, rX` with a constant installs a trap
                // handler: that address becomes an entry point.
                if csr == csr::MTVEC {
                    if let (Some(v), Some(c)) = (written.as_const(), out.as_mut()) {
                        c.trap_vectors.push(v & !3);
                    }
                }
                state.set(rd, Interval::TOP);
                state.taint.set_reg(rd, false);
            }
            Instr::Wfi => pets = true,
            Instr::Fence | Instr::Ecall | Instr::Ebreak => {}
            Instr::Mret => {
                cost = spec.cost.jump;
            }
        }
        if let Some(c) = out {
            // A terminating branch/jal's cost lives on the CFG edge.
            let on_edge = is_term && matches!(instr, Instr::Branch { .. } | Instr::Jal { .. });
            c.facts.body_cycles += u64::from(if on_edge {
                cost.saturating_sub(spec.cost.base)
            } else {
                cost
            });
            c.facts.pets |= pets;
        }
    }
}

/// Where a resolved memory access lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// A single constant address in the given region.
    Const(u32, Where),
    /// A non-constant pointer whose whole interval stays inside one region.
    Range(Where),
    /// A pointer the interval domain cannot pin to one region.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessDir {
    Load,
    Store,
}

/// Resolves a `base + imm` access against the machine map using the
/// full interval of the base register.
fn resolve_target(spec: &MachineSpec, base: Interval, imm: i32) -> Target {
    if let Some(b) = base.as_const() {
        let a = b.wrapping_add(imm as u32);
        return Target::Const(a, spec.locate(a));
    }
    let Some((lo, hi)) = base.displaced(imm) else {
        return Target::Unknown; // the offset wrapped the interval
    };
    let (wl, wh) = (spec.locate(lo), spec.locate(hi));
    // The mapped regions are contiguous, so both endpoints landing in
    // the same region means the whole range does. `Nowhere` is the
    // complement of the map and need not be contiguous; `Io` endpoints
    // only match when the range is a single (constant) address.
    if wl == wh && wl != Where::Nowhere && !matches!(wl, Where::Io(_)) {
        Target::Range(wl)
    } else {
        Target::Unknown
    }
}

/// Checks one memory access; returns its worst-case extra wait-states.
///
/// Map/direction/stack diagnostics are only emitted for constant
/// addresses; a bounded non-constant pointer still gets an exact wait
/// classification when its whole range lands in one region.
fn check_access(
    spec: &MachineSpec,
    pc: u32,
    rs1: Reg,
    dir: AccessDir,
    bytes: u32,
    target: &Target,
    out: &mut Option<&mut Collector>,
) -> u32 {
    let (addr, region) = match *target {
        Target::Const(a, w) => (a, w),
        Target::Range(w) => {
            return match (w, dir) {
                (Where::Pmem, _) => spec.pmem_wait_cycles,
                (Where::Accel, AccessDir::Load) => spec.accel_read_wait_cycles,
                _ => 0,
            };
        }
        Target::Unknown => {
            // Unknown pointer: charge the worst wait the bus can impose.
            return match dir {
                AccessDir::Load => spec.worst_load_wait(),
                AccessDir::Store => spec.worst_store_wait(),
            };
        }
    };
    let verb = match dir {
        AccessDir::Load => "load from",
        AccessDir::Store => "store to",
    };
    // Stack discipline: sp-relative constant accesses must stay inside
    // the configured stack region.
    if rs1 == Reg::SP {
        if let Some(stack) = spec.stack {
            if !stack.contains(addr) || !stack.contains(addr + bytes - 1) {
                emit(
                    out,
                    Severity::Error,
                    Check::Stack,
                    pc,
                    format!(
                        "sp-relative {verb} 0x{addr:08x} is outside the stack \
                         region [0x{:08x}, 0x{:08x})",
                        stack.base,
                        stack.base + stack.bytes
                    ),
                );
                return 0;
            }
        }
    }
    match region {
        Where::Dmem => 0,
        Where::Pmem => spec.pmem_wait_cycles,
        Where::Bcast => {
            if dir == AccessDir::Store {
                emit(
                    out,
                    Severity::Error,
                    Check::Mmio,
                    pc,
                    format!("store to 0x{addr:08x} in the read-only broadcast window"),
                );
            }
            0
        }
        Where::Accel => match dir {
            AccessDir::Load => spec.accel_read_wait_cycles,
            AccessDir::Store => 0,
        },
        Where::Io(off) => {
            let word_off = off & !3;
            match spec.io_regs.iter().find(|r| r.offset == word_off) {
                None => emit(
                    out,
                    Severity::Error,
                    Check::Mmio,
                    pc,
                    format!(
                        "{verb} device offset 0x{off:02x}: no register is \
                         mapped there (reads return 0, writes vanish)"
                    ),
                ),
                Some(reg) => {
                    let (ok, actual) = match dir {
                        AccessDir::Load => (reg.readable, "write-only"),
                        AccessDir::Store => (reg.writable, "read-only"),
                    };
                    if !ok {
                        emit(
                            out,
                            Severity::Error,
                            Check::Mmio,
                            pc,
                            format!(
                                "{verb} {} (offset 0x{off:02x}), but that \
                                 register is {actual}",
                                reg.name
                            ),
                        );
                    }
                }
            }
            0
        }
        Where::Imem => {
            if dir == AccessDir::Store {
                emit(
                    out,
                    Severity::Warning,
                    Check::Region,
                    pc,
                    format!(
                        "{verb} 0x{addr:08x} rewrites instruction memory \
                         (self-modifying code invalidates the decode cache)"
                    ),
                );
            }
            0
        }
        Where::Nowhere => {
            emit(
                out,
                Severity::Error,
                Check::Region,
                pc,
                format!(
                    "{verb} 0x{addr:08x} hits no mapped region (bus fault at \
                     runtime)"
                ),
            );
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::fixtures::*;

    #[test]
    fn mmio_unknown_register_is_error() {
        let r = check(
            devices(),
            "
                li t0, 0x02000000
                sw zero, 0x64(t0)
                ebreak
            ",
        );
        assert!(
            has(&r, Check::Mmio, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }

    #[test]
    fn mmio_direction_is_checked() {
        // RECV_READY is read-only; storing to it is an error.
        let r = check(
            devices(),
            "
                li t0, 0x02000000
                sw zero, 0x00(t0)
                ebreak
            ",
        );
        assert!(has(&r, Check::Mmio, Severity::Error));
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.check == Check::Mmio)
            .unwrap();
        assert!(d.message.contains("RECV_READY"), "{}", d.message);
        assert!(d.message.contains("read-only"), "{}", d.message);
        // Reading a write-only register is the mirror error.
        let r = check(
            devices(),
            "
                li t0, 0x02000000
                lw a0, 0x0c(t0)
                ebreak
            ",
        );
        assert!(has(&r, Check::Mmio, Severity::Error));
        // The legal direction passes.
        let r = check(
            devices(),
            "
                li t0, 0x02000000
                lw a0, 0x00(t0)
                sw zero, 0x0c(t0)
                ebreak
            ",
        );
        assert!(!r.has_errors(), "{:#?}", r.diagnostics);
    }

    #[test]
    fn uninitialized_read_is_error() {
        let r = check(
            MachineSpec::bare(4096, 65536),
            "
                add a0, a1, a2
                ebreak
            ",
        );
        assert!(has(&r, Check::Uninit, Severity::Error));
        // Initialized on only one path: a warning, not an error.
        let r = check(
            MachineSpec::bare(4096, 65536),
            "
                li a0, 1
                beqz a0, skip
                li a1, 2
            skip:
                add a2, a1, a0
                ebreak
            ",
        );
        assert!(has(&r, Check::Uninit, Severity::Warning));
        assert!(!has(&r, Check::Uninit, Severity::Error));
    }

    #[test]
    fn stack_bounds_are_checked() {
        // sp points at the stack top; pushing stays inside, an address
        // above the top (positive offset) is outside the region.
        let r = check(
            devices(),
            "
                li sp, 0x00808000
                addi sp, sp, -16
                sw a0, 0(sp)
                sw a0, 12(sp)
                ebreak
            ",
        );
        assert!(
            !r.diagnostics.iter().any(|d| d.check == Check::Stack),
            "{:#?}",
            r.diagnostics
        );
        let r = check(
            devices(),
            "
                li sp, 0x00808000
                sw a0, 0(sp)
                ebreak
            ",
        );
        assert!(has(&r, Check::Stack, Severity::Error));
        // Underflowing the 4 KiB region is also caught.
        let r = check(
            devices(),
            "
                li sp, 0x00807000
                sw a0, -4(sp)
                ebreak
            ",
        );
        assert!(has(&r, Check::Stack, Severity::Error));
    }

    #[test]
    fn region_violation_is_error() {
        let r = check(
            devices(),
            "
                li t0, 0x00700000   # below dmem, above imem: unmapped
                lw a0, 0(t0)
                ebreak
            ",
        );
        assert!(has(&r, Check::Region, Severity::Error));
    }

    /// A bounded pointer sweep over dmem must not raise region errors even
    /// though the address is not a single constant.
    #[test]
    fn bounded_pointer_range_has_no_region_error() {
        let r = check(
            devices(),
            "
                li t0, 0x00800000
                li t1, 0x00800040
            loop:
                lw a0, 0(t0)
                addi t0, t0, 4
                bltu t0, t1, loop
                ebreak
            ",
        );
        assert!(
            !has(&r, Check::Region, Severity::Error),
            "{:#?}",
            r.diagnostics
        );
    }
}
