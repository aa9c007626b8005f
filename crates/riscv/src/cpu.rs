//! The RV32IM core model with VexRiscv-like 5-stage pipeline timing.

use crate::isa::{decode, AluOp, BranchOp, CsrOp, CsrSrc, Instr, LoadOp, MulOp, Reg, StoreOp};

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessSize {
    /// One byte.
    Byte,
    /// Two bytes.
    Half,
    /// Four bytes.
    Word,
}

impl AccessSize {
    /// The access width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            AccessSize::Byte => 1,
            AccessSize::Half => 2,
            AccessSize::Word => 4,
        }
    }
}

/// A successful bus read: the value plus any wait-states the device charged.
///
/// Wait-states model memory-port contention: for example the RPU's packet
/// memory shares one URAM port between the core and the DMA engine (paper
/// §4.1), so a core access that loses arbitration is charged extra cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusValue {
    /// The loaded value, zero-extended into 32 bits.
    pub value: u32,
    /// Extra cycles the access took beyond the pipeline's base cost.
    pub wait_cycles: u32,
}

impl BusValue {
    /// A value with no wait-states (single-cycle BRAM).
    pub fn fast(value: u32) -> Self {
        Self {
            value,
            wait_cycles: 0,
        }
    }
}

/// A bus fault: access outside any mapped device, or a device-specific error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusFault {
    /// Faulting address.
    pub addr: u32,
    /// `true` for stores, `false` for loads/fetches.
    pub is_store: bool,
}

impl std::fmt::Display for BusFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bus fault on {} at 0x{:08x}",
            if self.is_store { "store" } else { "load" },
            self.addr
        )
    }
}

impl std::error::Error for BusFault {}

/// An instruction fetch result: the raw word (the core decodes it), an
/// already-decoded instruction from a bus-side decode cache, or the address
/// of the load fault a word load from the PC raises. Eight bytes, one
/// [`Instr`]: the two other arms live in its tag's spare values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched {
    /// The raw instruction word; the core runs the decoder on it.
    Word(u32),
    /// A predecoded instruction, bypassing the decoder entirely.
    Decoded(Instr),
    /// The PC is unmapped: a load fault at this address.
    Fault(u32),
}

impl Fetched {
    /// What a plain word load from `pc` fetches.
    #[inline]
    pub fn load(bus: &mut (impl Bus + ?Sized), pc: u32) -> Self {
        match bus.load(pc, AccessSize::Word) {
            Ok(v) => Fetched::Word(v.value),
            Err(fault) => Fetched::Fault(fault.addr),
        }
    }
}

/// The memory system as seen by the core: instruction fetches, loads, and
/// stores. Implemented by each RPU's memory subsystem.
pub trait Bus {
    /// Loads `size` bytes from `addr` (also used for instruction fetch).
    ///
    /// # Errors
    ///
    /// Returns [`BusFault`] for unmapped addresses.
    fn load(&mut self, addr: u32, size: AccessSize) -> Result<BusValue, BusFault>;

    /// Stores the low `size` bytes of `value` to `addr`. Returns wait-states.
    ///
    /// # Errors
    ///
    /// Returns [`BusFault`] for unmapped addresses.
    fn store(&mut self, addr: u32, value: u32, size: AccessSize) -> Result<u32, BusFault>;

    /// Fetches the instruction at `pc`. The default is a plain word load
    /// ([`Fetched::load`]); buses with a [`DecodeCache`](crate::DecodeCache)
    /// override this to return predecoded instructions. Either way the
    /// architectural outcome must be identical to a plain word load plus
    /// decode.
    fn fetch(&mut self, pc: u32) -> Fetched {
        Fetched::load(self, pc)
    }
}

/// CSR addresses the core implements.
pub mod csr {
    /// Machine status (bit 3 = MIE, bit 7 = MPIE).
    pub const MSTATUS: u16 = 0x300;
    /// Machine trap vector.
    pub const MTVEC: u16 = 0x305;
    /// Machine interrupt enable (one bit per interrupt line).
    pub const MIE: u16 = 0x304;
    /// Machine interrupt pending (read-only mirror of the pending lines).
    pub const MIP: u16 = 0x344;
    /// Machine exception PC.
    pub const MEPC: u16 = 0x341;
    /// Machine trap cause.
    pub const MCAUSE: u16 = 0x342;
    /// Machine scratch.
    pub const MSCRATCH: u16 = 0x340;
    /// Cycle counter, low 32 bits (read-only).
    pub const MCYCLE: u16 = 0xb00;
    /// Cycle counter, high 32 bits (read-only).
    pub const MCYCLEH: u16 = 0xb80;
    /// Retired-instruction counter, low 32 bits (read-only).
    pub const MINSTRET: u16 = 0xb02;

    /// The names the assembler knows, with their numbers.
    pub(crate) const NAMES: [(&str, u16); 10] = [
        ("mstatus", MSTATUS),
        ("mie", MIE),
        ("mtvec", MTVEC),
        ("mscratch", MSCRATCH),
        ("mepc", MEPC),
        ("mcause", MCAUSE),
        ("mip", MIP),
        ("mcycle", MCYCLE),
        ("mcycleh", MCYCLEH),
        ("minstret", MINSTRET),
    ];
}

const MSTATUS_MIE: u32 = 1 << 3;
const MSTATUS_MPIE: u32 = 1 << 7;

/// Pipeline cost model, tunable per core variant. Defaults approximate the
/// VexRiscv configuration the paper uses (5-stage, single-issue, optimized
/// for FPGAs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cycles for a simple ALU/CSR instruction.
    pub(crate) base: u32,
    /// Cycles for a load hitting single-cycle memory (before wait-states).
    pub(crate) load: u32,
    /// Cycles for a store (before wait-states).
    pub(crate) store: u32,
    /// Cycles for a taken branch (misfetch penalty included).
    pub(crate) branch_taken: u32,
    /// Cycles for a not-taken branch.
    pub(crate) branch_not_taken: u32,
    /// Cycles for `jal`/`jalr`/`mret` (pipeline refill).
    pub(crate) jump: u32,
    /// Cycles for a multiply.
    pub(crate) mul: u32,
    /// Cycles for a divide/remainder.
    pub(crate) div: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            base: 1,
            load: 2,
            store: 1,
            branch_taken: 3,
            branch_not_taken: 1,
            jump: 3,
            mul: 4,
            div: 34,
        }
    }
}

/// The outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// An instruction retired, consuming `cycles` cycles.
    Executed {
        /// Cycles charged, including wait-states.
        cycles: u32,
    },
    /// The core is parked in `wfi` with no enabled interrupt pending.
    WaitingForInterrupt,
    /// The core hit `ebreak` and is halted for the host debugger (§3.4).
    Break,
    /// The core executed `ecall`; the environment interprets `a7`/`a0`.
    Ecall,
    /// A bus fault or illegal instruction halted the core.
    Fault(CpuFault),
}

/// A condition that halts the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuFault {
    /// Memory access outside mapped devices.
    Bus(BusFault),
    /// Undecodable instruction word at the given PC.
    IllegalInstruction {
        /// PC of the illegal word.
        pc: u32,
        /// The word itself.
        word: u32,
    },
}

/// The RV32IM core.
///
/// # Examples
///
/// Running a tiny program against a flat-RAM bus:
///
/// ```
/// use rosebud_riscv::{Cpu, RamBus, assemble, StepResult};
///
/// let image = assemble("
///     li a0, 6
///     li a1, 7
///     mul a2, a0, a1
///     ebreak
/// ").unwrap();
/// let mut bus = RamBus::new(1024);
/// bus.load_image(0, image.words());
/// let mut cpu = Cpu::new(0);
/// while !matches!(cpu.step(&mut bus), StepResult::Break) {}
/// assert_eq!(cpu.reg(rosebud_riscv::Reg::parse("a2").unwrap()), 42);
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    pc: u32,
    regs: [u32; 32],
    mstatus: u32,
    mie: u32,
    mip: u32,
    mtvec: u32,
    mepc: u32,
    mcause: u32,
    mscratch: u32,
    cycles: u64,
    instret: u64,
    mem_waits: u64,
    cost: CostModel,
    halted: Halt,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    Running,
    Wfi,
    Break,
    Fault,
}

impl Cpu {
    /// Creates a core with PC at `reset_pc` and all registers zero.
    pub fn new(reset_pc: u32) -> Self {
        Self {
            pc: reset_pc,
            regs: [0; 32],
            mstatus: 0,
            mie: 0,
            mip: 0,
            mtvec: 0,
            mepc: 0,
            mcause: 0,
            mscratch: 0,
            cycles: 0,
            instret: 0,
            mem_waits: 0,
            cost: CostModel::default(),
            halted: Halt::Running,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.0 as usize]
    }

    /// Writes a register (`x0` stays zero).
    #[inline]
    pub(crate) fn set_reg(&mut self, reg: Reg, value: u32) {
        if reg.0 != 0 {
            self.regs[reg.0 as usize] = value;
        }
    }

    /// Total cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total instructions retired so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Total wait-state cycles paid to the memory system beyond the
    /// pipeline's base load/store cost — the memory-port-contention share of
    /// [`Cpu::cycles`] (the URAM arbitration loss of paper §4.1).
    pub fn mem_wait_cycles(&self) -> u64 {
        self.mem_waits
    }

    /// `true` when halted by `ebreak` or a fault.
    pub fn is_halted(&self) -> bool {
        matches!(self.halted, Halt::Break | Halt::Fault)
    }

    /// `true` when parked in `wfi`.
    pub fn is_waiting(&self) -> bool {
        self.halted == Halt::Wfi
    }

    /// `true` when a [`Cpu::step`] is guaranteed to change no core state:
    /// halted on `ebreak`/fault, or parked in `wfi` with no pending unmasked
    /// interrupt. Event-skipping simulation kernels use this to elide ticks;
    /// any [`Cpu::raise_irq`] invalidates the answer.
    pub fn is_parked(&self) -> bool {
        match self.halted {
            Halt::Break | Halt::Fault => true,
            Halt::Wfi => self.mip & self.mie == 0,
            Halt::Running => false,
        }
    }

    /// Raises interrupt line `line` (0–31). The core takes it when enabled.
    pub fn raise_irq(&mut self, line: u8) {
        self.mip |= 1 << line;
        if self.halted == Halt::Wfi && self.mip & self.mie != 0 {
            self.halted = Halt::Running;
        }
    }

    /// Clears interrupt line `line`.
    pub fn clear_irq(&mut self, line: u8) {
        self.mip &= !(1 << line);
    }

    /// `true` when `self` and `other` are the same architectural state up to
    /// the free-running counters (`mcycle`, `minstret`, memory waits): pc,
    /// registers, CSRs, pending lines and run state. A core that comes back
    /// to a state it was in, having read only what has not changed since,
    /// will repeat itself — the fixed point a spin-loop elision rests on.
    pub fn same_state(&self, other: &Cpu) -> bool {
        self.pc == other.pc
            && self.regs == other.regs
            && (self.mstatus, self.mie, self.mip, self.mtvec)
                == (other.mstatus, other.mie, other.mip, other.mtvec)
            && (self.mepc, self.mcause, self.mscratch) == (other.mepc, other.mcause, other.mscratch)
            && self.halted == other.halted
    }

    /// Advances the free-running counters by what `cycles` cycles,
    /// `instret` retired instructions and `mem_waits` wait-states would have
    /// added — the closed form of stepping a proven fixed point.
    pub fn credit(&mut self, cycles: u64, instret: u64, mem_waits: u64) {
        self.cycles += cycles;
        self.instret += instret;
        self.mem_waits += mem_waits;
    }

    #[inline]
    fn read_csr(&self, addr: u16) -> u32 {
        match addr {
            csr::MSTATUS => self.mstatus,
            csr::MTVEC => self.mtvec,
            csr::MIE => self.mie,
            csr::MIP => self.mip,
            csr::MEPC => self.mepc,
            csr::MCAUSE => self.mcause,
            csr::MSCRATCH => self.mscratch,
            csr::MCYCLE => self.cycles as u32,
            csr::MCYCLEH => (self.cycles >> 32) as u32,
            csr::MINSTRET => self.instret as u32,
            _ => 0,
        }
    }

    #[inline]
    fn write_csr(&mut self, addr: u16, value: u32) {
        match addr {
            csr::MSTATUS => self.mstatus = value & (MSTATUS_MIE | MSTATUS_MPIE),
            csr::MTVEC => self.mtvec = value & !0b11,
            csr::MIE => self.mie = value,
            csr::MEPC => self.mepc = value & !0b1,
            csr::MCAUSE => self.mcause = value,
            csr::MSCRATCH => self.mscratch = value,
            _ => {}
        }
    }

    #[inline]
    fn take_interrupt(&mut self) -> bool {
        if self.mstatus & MSTATUS_MIE == 0 {
            return false;
        }
        let active = self.mip & self.mie;
        if active == 0 {
            return false;
        }
        let line = active.trailing_zeros();
        self.mepc = self.pc;
        self.mcause = 0x8000_0000 | line;
        // MPIE <- MIE, MIE <- 0.
        self.mstatus = (self.mstatus & !MSTATUS_MPIE)
            | if self.mstatus & MSTATUS_MIE != 0 {
                MSTATUS_MPIE
            } else {
                0
            };
        self.mstatus &= !MSTATUS_MIE;
        self.pc = self.mtvec;
        true
    }

    /// Executes one instruction (or takes a pending interrupt) against `bus`.
    #[inline(always)]
    pub fn step(&mut self, bus: &mut impl Bus) -> StepResult {
        match self.halted {
            Halt::Break => return StepResult::Break,
            Halt::Fault => {
                return StepResult::Fault(CpuFault::Bus(BusFault {
                    addr: self.pc,
                    is_store: false,
                }))
            }
            Halt::Wfi => {
                if self.mip & self.mie != 0 {
                    self.halted = Halt::Running;
                } else {
                    return StepResult::WaitingForInterrupt;
                }
            }
            Halt::Running => {}
        }

        if self.take_interrupt() {
            // Trap entry costs a pipeline refill.
            self.cycles += u64::from(self.cost.jump);
            return StepResult::Executed {
                cycles: self.cost.jump,
            };
        }

        let instr = match bus.fetch(self.pc) {
            Fetched::Decoded(i) => i,
            Fetched::Word(word) => match decode(word) {
                Ok(i) => i,
                Err(_) => {
                    self.halted = Halt::Fault;
                    return StepResult::Fault(CpuFault::IllegalInstruction { pc: self.pc, word });
                }
            },
            Fetched::Fault(addr) => {
                self.halted = Halt::Fault;
                let fault = BusFault {
                    addr,
                    is_store: false,
                };
                return StepResult::Fault(CpuFault::Bus(fault));
            }
        };

        let mut cycles = self.cost.base;
        let mut next_pc = self.pc.wrapping_add(4);

        macro_rules! fault {
            ($f:expr) => {{
                self.halted = Halt::Fault;
                return StepResult::Fault(CpuFault::Bus($f));
            }};
        }

        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, (imm << 12) as u32),
            Instr::Auipc { rd, imm } => self.set_reg(rd, self.pc.wrapping_add((imm << 12) as u32)),
            Instr::Jal { rd, imm } => {
                self.set_reg(rd, self.pc.wrapping_add(4));
                next_pc = self.pc.wrapping_add(imm as u32);
                cycles = self.cost.jump;
            }
            Instr::Jalr { rd, rs1, imm } => {
                let target = self.reg(rs1).wrapping_add(imm as u32) & !1;
                self.set_reg(rd, self.pc.wrapping_add(4));
                next_pc = target;
                cycles = self.cost.jump;
            }
            Instr::Branch { op, rs1, rs2, imm } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i32) < (b as i32),
                    BranchOp::Ge => (a as i32) >= (b as i32),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    next_pc = self.pc.wrapping_add(imm as u32);
                    cycles = self.cost.branch_taken;
                } else {
                    cycles = self.cost.branch_not_taken;
                }
            }
            Instr::Load { op, rd, rs1, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                let size = match op {
                    LoadOp::Lb | LoadOp::Lbu => AccessSize::Byte,
                    LoadOp::Lh | LoadOp::Lhu => AccessSize::Half,
                    LoadOp::Lw => AccessSize::Word,
                };
                let loaded = match bus.load(addr, size) {
                    Ok(v) => v,
                    Err(f) => fault!(f),
                };
                let value = match op {
                    LoadOp::Lb => loaded.value as u8 as i8 as i32 as u32,
                    LoadOp::Lbu => loaded.value & 0xff,
                    LoadOp::Lh => loaded.value as u16 as i16 as i32 as u32,
                    LoadOp::Lhu => loaded.value & 0xffff,
                    LoadOp::Lw => loaded.value,
                };
                self.set_reg(rd, value);
                self.mem_waits += u64::from(loaded.wait_cycles);
                cycles = self.cost.load + loaded.wait_cycles;
            }
            Instr::Store { op, rs1, rs2, imm } => {
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                let size = match op {
                    StoreOp::Sb => AccessSize::Byte,
                    StoreOp::Sh => AccessSize::Half,
                    StoreOp::Sw => AccessSize::Word,
                };
                match bus.store(addr, self.reg(rs2), size) {
                    Ok(wait) => {
                        self.mem_waits += u64::from(wait);
                        cycles = self.cost.store + wait;
                    }
                    Err(f) => fault!(f),
                }
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                let b = imm as u32;
                self.set_reg(rd, alu(op, a, b));
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                self.set_reg(rd, alu(op, a, b));
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let value = match op {
                    MulOp::Mul => a.wrapping_mul(b),
                    MulOp::Mulh => ((a as i32 as i64 * b as i32 as i64) >> 32) as u32,
                    MulOp::Mulhsu => ((a as i32 as i64 * b as i64) >> 32) as u32,
                    MulOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
                    MulOp::Div => {
                        if b == 0 {
                            u32::MAX
                        } else if a == 0x8000_0000 && b == u32::MAX {
                            a
                        } else {
                            ((a as i32) / (b as i32)) as u32
                        }
                    }
                    MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
                    MulOp::Rem => {
                        if b == 0 {
                            a
                        } else if a == 0x8000_0000 && b == u32::MAX {
                            0
                        } else {
                            ((a as i32) % (b as i32)) as u32
                        }
                    }
                    MulOp::Remu => {
                        if b == 0 {
                            a
                        } else {
                            a % b
                        }
                    }
                };
                self.set_reg(rd, value);
                cycles = match op {
                    MulOp::Mul | MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => self.cost.mul,
                    _ => self.cost.div,
                };
            }
            Instr::Fence => {}
            Instr::Ecall => {
                self.pc = next_pc;
                self.cycles += u64::from(cycles);
                self.instret += 1;
                return StepResult::Ecall;
            }
            Instr::Ebreak => {
                self.halted = Halt::Break;
                self.cycles += u64::from(cycles);
                return StepResult::Break;
            }
            Instr::Mret => {
                next_pc = self.mepc;
                // MIE <- MPIE.
                if self.mstatus & MSTATUS_MPIE != 0 {
                    self.mstatus |= MSTATUS_MIE;
                } else {
                    self.mstatus &= !MSTATUS_MIE;
                }
                self.mstatus |= MSTATUS_MPIE;
                cycles = self.cost.jump;
            }
            Instr::Wfi => {
                self.pc = next_pc;
                self.cycles += u64::from(cycles);
                self.instret += 1;
                if self.mip & self.mie == 0 {
                    self.halted = Halt::Wfi;
                    return StepResult::WaitingForInterrupt;
                }
                return StepResult::Executed { cycles };
            }
            Instr::Csr { op, rd, csr, src } => {
                let old = self.read_csr(csr);
                let operand = match src {
                    CsrSrc::Reg(r) => self.reg(r),
                    CsrSrc::Imm(v) => u32::from(v),
                };
                let new = match op {
                    CsrOp::Rw => operand,
                    CsrOp::Rs => old | operand,
                    CsrOp::Rc => old & !operand,
                };
                let skip_write = matches!(op, CsrOp::Rs | CsrOp::Rc)
                    && matches!(src, CsrSrc::Reg(Reg(0)) | CsrSrc::Imm(0));
                if !skip_write {
                    self.write_csr(csr, new);
                }
                self.set_reg(rd, old);
            }
        }

        self.pc = next_pc;
        self.cycles += u64::from(cycles);
        self.instret += 1;
        StepResult::Executed { cycles }
    }
}

#[inline(always)]
pub(crate) fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 31),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 31),
        AluOp::Sra => ((a as i32) >> (b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

/// A flat RAM bus for tests and standalone programs.
///
/// Word-aligned backing store; unaligned sub-word access is supported the way
/// simple FPGA memories implement it (byte lanes).
#[derive(Debug, Clone)]
pub struct RamBus {
    mem: Vec<u8>,
    icache: Option<crate::DecodeCache>,
    hits: u64,
    misses: u64,
}

impl RamBus {
    /// Creates `size` bytes of zeroed RAM.
    pub fn new(size: usize) -> Self {
        Self {
            mem: vec![0; size],
            icache: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Enables the decoded-instruction cache over the whole RAM. Purely a
    /// speed knob: fetch results and fault behaviour are unchanged.
    pub fn with_decode_cache(mut self) -> Self {
        let mut cache = crate::DecodeCache::new(self.mem.len());
        cache.refresh(&self.mem, 0, self.mem.len());
        self.icache = Some(cache);
        self
    }

    /// The decode cache's counters, when one is enabled.
    pub fn decode_cache_stats(&self) -> Option<crate::DecodeCacheStats> {
        self.icache.as_ref().map(|cache| crate::DecodeCacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: cache.refreshed(),
        })
    }

    /// Copies a word image to `base` (the boot loader path).
    pub fn load_image(&mut self, base: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            let at = base as usize + i * 4;
            self.mem[at..at + 4].copy_from_slice(&w.to_le_bytes());
        }
        if let Some(cache) = &mut self.icache {
            cache.refresh(&self.mem, base, words.len() * 4);
        }
    }

    /// Raw access to the backing store.
    pub fn mem(&self) -> &[u8] {
        &self.mem
    }

    /// Mutable raw access to the backing store. Writes through it bypass the
    /// decode cache: put code in with [`RamBus::load_image`] or
    /// [`Bus::store`].
    pub fn mem_mut(&mut self) -> &mut [u8] {
        &mut self.mem
    }
}

impl Bus for RamBus {
    fn load(&mut self, addr: u32, size: AccessSize) -> Result<BusValue, BusFault> {
        let addr = addr as usize;
        let n = size.bytes() as usize;
        if addr + n > self.mem.len() {
            return Err(BusFault {
                addr: addr as u32,
                is_store: false,
            });
        }
        let mut bytes = [0u8; 4];
        bytes[..n].copy_from_slice(&self.mem[addr..addr + n]);
        Ok(BusValue::fast(u32::from_le_bytes(bytes)))
    }

    fn store(&mut self, addr: u32, value: u32, size: AccessSize) -> Result<u32, BusFault> {
        let at = addr as usize;
        let n = size.bytes() as usize;
        if at + n > self.mem.len() {
            return Err(BusFault {
                addr,
                is_store: true,
            });
        }
        self.mem[at..at + n].copy_from_slice(&value.to_le_bytes()[..n]);
        if let Some(cache) = &mut self.icache {
            cache.refresh(&self.mem, addr, n);
        }
        Ok(0)
    }

    fn fetch(&mut self, pc: u32) -> Fetched {
        match self.icache.as_ref().map(|cache| cache.get(pc)) {
            None => Fetched::load(self, pc),
            Some(Some(entry)) => {
                self.hits += 1;
                entry
            }
            Some(None) => {
                self.misses += 1;
                Fetched::load(self, pc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(source: &str, max_steps: usize) -> (Cpu, RamBus) {
        let image = assemble(source).expect("assembly failed");
        let mut bus = RamBus::new(64 * 1024);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        for _ in 0..max_steps {
            match cpu.step(&mut bus) {
                StepResult::Break | StepResult::Fault(_) => break,
                _ => {}
            }
        }
        (cpu, bus)
    }

    fn reg(cpu: &Cpu, name: &str) -> u32 {
        cpu.reg(Reg::parse(name).unwrap())
    }

    #[test]
    fn arithmetic_program() {
        let (cpu, _) = run(
            "
            li a0, 100
            li a1, -3
            add a2, a0, a1
            sub a3, a0, a1
            mul a4, a0, a1
            div a5, a0, a1
            rem a6, a0, a1
            ebreak
            ",
            100,
        );
        assert_eq!(reg(&cpu, "a2"), 97);
        assert_eq!(reg(&cpu, "a3"), 103);
        assert_eq!(reg(&cpu, "a4") as i32, -300);
        assert_eq!(reg(&cpu, "a5") as i32, -33);
        assert_eq!(reg(&cpu, "a6") as i32, 1);
    }

    #[test]
    fn fibonacci_loop() {
        let (cpu, _) = run(
            "
                li a0, 10      # n
                li a1, 0       # fib(0)
                li a2, 1       # fib(1)
            loop:
                beqz a0, done
                add a3, a1, a2
                mv a1, a2
                mv a2, a3
                addi a0, a0, -1
                j loop
            done:
                ebreak
            ",
            500,
        );
        assert_eq!(reg(&cpu, "a1"), 55);
    }

    #[test]
    fn memory_access_and_subword() {
        let (_, bus) = run(
            "
            li t0, 0x1000
            li t1, 0x11223344
            sw t1, 0(t0)
            sb t1, 8(t0)
            sh t1, 12(t0)
            ebreak
            ",
            100,
        );
        assert_eq!(&bus.mem()[0x1000..0x1004], &[0x44, 0x33, 0x22, 0x11]);
        assert_eq!(bus.mem()[0x1008], 0x44);
        assert_eq!(&bus.mem()[0x100c..0x100e], &[0x44, 0x33]);
    }

    #[test]
    fn signed_loads_sign_extend() {
        let (cpu, _) = run(
            "
            li t0, 0x1000
            li t1, 0xFF80
            sh t1, 0(t0)
            lb a0, 0(t0)
            lbu a1, 0(t0)
            lh a2, 0(t0)
            lhu a3, 0(t0)
            ebreak
            ",
            100,
        );
        assert_eq!(reg(&cpu, "a0") as i32, -128);
        assert_eq!(reg(&cpu, "a1"), 0x80);
        assert_eq!(reg(&cpu, "a2") as i32, -128i32);
        assert_eq!(reg(&cpu, "a3"), 0xFF80);
    }

    #[test]
    fn division_by_zero_follows_spec() {
        let (cpu, _) = run(
            "
            li a0, 7
            li a1, 0
            div a2, a0, a1
            divu a3, a0, a1
            rem a4, a0, a1
            remu a5, a0, a1
            ebreak
            ",
            100,
        );
        assert_eq!(reg(&cpu, "a2"), u32::MAX);
        assert_eq!(reg(&cpu, "a3"), u32::MAX);
        assert_eq!(reg(&cpu, "a4"), 7);
        assert_eq!(reg(&cpu, "a5"), 7);
    }

    #[test]
    fn function_call_and_return() {
        let (cpu, _) = run(
            "
                li sp, 0x8000
                li a0, 5
                call double
                call double
                ebreak
            double:
                add a0, a0, a0
                ret
            ",
            100,
        );
        assert_eq!(reg(&cpu, "a0"), 20);
    }

    #[test]
    fn interrupt_taken_when_enabled() {
        let image = assemble(
            "
                li t0, handler
                csrw mtvec, t0
                li t0, 4          # enable line 2
                csrw mie, t0
                csrsi mstatus, 8  # MIE
            spin:
                j spin
            handler:
                li a0, 99
                ebreak
            ",
        )
        .unwrap();
        let mut bus = RamBus::new(4096);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        for _ in 0..10 {
            cpu.step(&mut bus);
        }
        assert_eq!(cpu.reg(Reg::parse("a0").unwrap()), 0);
        cpu.raise_irq(2);
        let mut hit_break = false;
        for _ in 0..10 {
            if matches!(cpu.step(&mut bus), StepResult::Break) {
                hit_break = true;
                break;
            }
        }
        assert!(hit_break, "handler did not run");
        assert_eq!(cpu.reg(Reg::parse("a0").unwrap()), 99);
        assert_eq!(cpu.mip, 4);
    }

    #[test]
    fn wfi_parks_until_interrupt() {
        let image = assemble(
            "
                li t0, handler
                csrw mtvec, t0
                li t0, 2
                csrw mie, t0
                csrsi mstatus, 8
                wfi
                ebreak        # skipped: handler runs first
            handler:
                li a0, 7
                ebreak
            ",
        )
        .unwrap();
        let mut bus = RamBus::new(4096);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        for _ in 0..10 {
            cpu.step(&mut bus);
            if cpu.is_waiting() {
                break;
            }
        }
        assert!(cpu.is_waiting());
        assert_eq!(cpu.step(&mut bus), StepResult::WaitingForInterrupt);
        cpu.raise_irq(1);
        for _ in 0..5 {
            if matches!(cpu.step(&mut bus), StepResult::Break) {
                break;
            }
        }
        assert_eq!(cpu.reg(Reg::parse("a0").unwrap()), 7);
    }

    #[test]
    fn mret_returns_and_reenables_interrupts() {
        let image = assemble(
            "
                li t0, handler
                csrw mtvec, t0
                li t0, 1
                csrw mie, t0
                csrsi mstatus, 8
                li a1, 0
            spin:
                addi a1, a1, 1
                li t1, 3
                blt a1, t1, spin
                ebreak
            handler:
                li a0, 1
                csrw mip, zero  # no-op: mip is externally controlled
                mret
            ",
        )
        .unwrap();
        let mut bus = RamBus::new(4096);
        bus.load_image(0, image.words());
        let mut cpu = Cpu::new(0);
        for _ in 0..8 {
            cpu.step(&mut bus);
        }
        cpu.raise_irq(0);
        // Handler runs once; clear the line while it executes.
        for _ in 0..3 {
            cpu.step(&mut bus);
        }
        cpu.clear_irq(0);
        let mut done = false;
        for _ in 0..50 {
            if matches!(cpu.step(&mut bus), StepResult::Break) {
                done = true;
                break;
            }
        }
        assert!(done, "program did not finish after mret");
        assert_eq!(cpu.reg(Reg::parse("a0").unwrap()), 1);
    }

    #[test]
    fn bus_fault_halts_core() {
        let (cpu, _) = run(
            "
            li t0, 0x7fffff00
            lw a0, 0(t0)
            ebreak
            ",
            10,
        );
        assert!(cpu.is_halted());
    }

    #[test]
    fn cycle_costs_match_model() {
        // 3 ALU instructions + ebreak(1): base model charges 1 each.
        let (cpu, _) = run(
            "
            addi a0, zero, 1
            addi a0, a0, 1
            addi a0, a0, 1
            ebreak
            ",
            10,
        );
        assert_eq!(cpu.cycles(), 4);
        // A taken jump costs 3.
        let (cpu, _) = run(
            "
                j over
                addi a0, a0, 1
            over:
                ebreak
            ",
            10,
        );
        assert_eq!(cpu.cycles(), 3 + 1);
    }
}
