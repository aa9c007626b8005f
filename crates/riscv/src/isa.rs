//! RV32IM instruction definitions, decoding, and encoding.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// A decoded RV32IM instruction.
///
/// Covers the full RV32I base set plus the M extension and the handful of
/// system instructions (CSR access, `mret`, `wfi`, `ecall`, `ebreak`) the
/// VexRiscv core in each RPU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field names (rd, rs1, rs2, imm, op) follow the ISA manual
pub enum Instr {
    /// Load upper immediate: `rd = imm << 12`.
    Lui { rd: Reg, imm: i32 },
    /// Add upper immediate to PC: `rd = pc + (imm << 12)`.
    Auipc { rd: Reg, imm: i32 },
    /// Jump and link: `rd = pc + 4; pc += imm`.
    Jal { rd: Reg, imm: i32 },
    /// Jump and link register: `rd = pc + 4; pc = (rs1 + imm) & !1`.
    Jalr { rd: Reg, rs1: Reg, imm: i32 },
    /// Conditional branch.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    /// Memory load.
    Load {
        op: LoadOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Memory store.
    Store {
        op: StoreOp,
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    /// Register-immediate ALU operation.
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Register-register ALU operation.
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// M-extension multiply/divide.
    MulDiv {
        op: MulOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Memory fence (a no-op in the in-order single-core model).
    Fence,
    /// Environment call (used by firmware to signal the simulator).
    Ecall,
    /// Breakpoint (halts the core for the host debugger, §3.4).
    Ebreak,
    /// CSR read-write/set/clear, register or immediate form.
    Csr {
        op: CsrOp,
        rd: Reg,
        csr: u16,
        src: CsrSrc,
    },
    /// Return from machine-mode trap.
    Mret,
    /// Wait for interrupt: parks the core until an interrupt is pending.
    Wfi,
}

/// A register index 0–31, built by [`Reg::new`] or [`Reg::parse`]: both
/// check the range, and the index is no public field, so a register past
/// `x31` cannot be written down (and `encode` never shifts one into a
/// neighbouring field):
///
/// ```compile_fail
/// let _ = rosebud_riscv::Reg(33);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub(crate) u8);

impl Reg {
    /// The hardwired zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Return address `x1`.
    pub(crate) const RA: Reg = Reg(1);
    /// Stack pointer `x2`.
    pub(crate) const SP: Reg = Reg(2);

    /// Creates a register, checking range.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    #[inline]
    pub fn new(index: u8) -> Self {
        assert!(index < 32, "register index out of range: {index}");
        Reg(index)
    }

    /// The index, 0–31.
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// The ABI name (`zero`, `ra`, `sp`, `a0`, …).
    pub(crate) fn abi_name(self) -> &'static str {
        REG_NAMES[self.0 as usize]
    }

    /// Parses either an `x<N>` or ABI register name (`fp` is `s0`).
    pub fn parse(name: &str) -> Option<Reg> {
        // Built once from the names; the assembler parses every operand.
        static BY_NAME: OnceLock<BTreeMap<&str, u8>> = OnceLock::new();
        let name = name.trim();
        let index = match name.strip_prefix('x') {
            Some(num) => num.parse::<u8>().ok().filter(|&n| n < 32),
            None => BY_NAME
                .get_or_init(|| REG_NAMES.into_iter().zip(0..).chain([("fp", 8)]).collect())
                .get(name)
                .copied(),
        };
        index.map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// Branch comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater or equal (signed).
    Ge,
    /// Branch if less than (unsigned).
    Ltu,
    /// Branch if greater or equal (unsigned).
    Geu,
}

/// Load widths and signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load byte, sign-extended.
    Lb,
    /// Load halfword, sign-extended.
    Lh,
    /// Load word.
    Lw,
    /// Load byte, zero-extended.
    Lbu,
    /// Load halfword, zero-extended.
    Lhu,
}

/// Store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte.
    Sb,
    /// Store halfword.
    Sh,
    /// Store word.
    Sw,
}

/// ALU operations shared by register and immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (subtraction in the register form with the sub bit).
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Shift left logical.
    Sll,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Exclusive or.
    Xor,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Inclusive or.
    Or,
    /// And.
    And,
}

/// M-extension operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulOp {
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of signed × signed.
    Mulh,
    /// High 32 bits of signed × unsigned.
    Mulhsu,
    /// High 32 bits of unsigned × unsigned.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

/// CSR access operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// Atomic read/write.
    Rw,
    /// Atomic read and set bits.
    Rs,
    /// Atomic read and clear bits.
    Rc,
}

/// Source operand of a CSR instruction: a register or a 5-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrSrc {
    /// Register form (`csrrw` etc.).
    Reg(Reg),
    /// Immediate form (`csrrwi` etc.).
    Imm(u8),
}

/// Errors produced by [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The 32-bit word does not encode a supported instruction.
    Illegal(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Illegal(word) => write!(f, "illegal instruction 0x{word:08x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Errors produced by [`encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// `OpImm` with [`AluOp::Sub`]: RV32 has no `subi`. Negate the
    /// immediate and use `addi` instead.
    NoSubImmediate,
    /// An immediate that does not fit its field, or an odd branch or jump
    /// offset.
    OutOfRange {
        /// The field, as the message names it (`"branch offset"`, …).
        field: &'static str,
        /// The value that does not fit.
        value: i32,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NoSubImmediate => {
                write!(
                    f,
                    "`subi` does not exist in RV32; use `addi` with a negated immediate"
                )
            }
            EncodeError::OutOfRange { field, value } => write!(f, "{field} {value} out of range"),
        }
    }
}

impl std::error::Error for EncodeError {}

// The instruction table: the one place that says what each base operation
// is called and how it is encoded. `decode` matches on the opcode, then
// finds a row by its function bits with one indexed load; `encode`,
// `mnemonic` (the disassembler's names), `template` (the assembler's) and
// the analyzer's access widths read the same rows. A table's rows are in
// its op enum's declaration order, so `rows[op as usize]` is `op`'s row.

const LUI: u32 = 0b0110111;
const AUIPC: u32 = 0b0010111;
const JAL: u32 = 0b1101111;
const JALR: u32 = 0b1100111;
const BRANCH: u32 = 0b1100011;
const LOAD: u32 = 0b0000011;
const STORE: u32 = 0b0100011;
const OP_IMM: u32 = 0b0010011;
const OP: u32 = 0b0110011;
const MISC_MEM: u32 = 0b0001111;
const SYSTEM: u32 = 0b1110011;
/// The funct7 that selects the M extension under `OP`.
const MULDIV: u32 = 0b0000001;
/// The operand-free SYSTEM words: funct12 over the opcode.
const ECALL: u32 = SYSTEM;
const EBREAK: u32 = (0x001 << 20) | SYSTEM;
const MRET: u32 = (0x302 << 20) | SYSTEM;
const WFI: u32 = (0x105 << 20) | SYSTEM;

/// ABI register names, by index.
const REG_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

/// One operation: its mnemonic(s), the function bits that select it under
/// its opcode, and for a load or a store the bytes it moves.
struct Row<Op> {
    op: Op,
    /// The mnemonic (of the register form, for an ALU or CSR operation).
    name: &'static str,
    /// The immediate form's mnemonic, for an ALU or CSR operation.
    imm_name: &'static str,
    funct3: u32,
    /// Bits 31:25 where they select: `OP`'s funct7, `srai`'s bit 30.
    funct7: u32,
    bytes: u32,
}

/// A row, written on one line: `(op, name, imm_name, funct3, funct7, bytes)`.
const fn row<Op>(
    op: Op,
    name: &'static str,
    imm_name: &'static str,
    funct3: u32,
    funct7: u32,
    bytes: u32,
) -> Row<Op> {
    Row {
        op,
        name,
        imm_name,
        funct3,
        funct7,
        bytes,
    }
}

/// The rows of one op enum and the inverse `decode` reads.
struct Table<Op, const N: usize> {
    rows: [Row<Op>; N],
    /// Row number by [`key`]; `u8::MAX` where no row has that key.
    index: [u8; 16],
}

/// A row's index key: funct3, and funct7's bit 5 (the one bit that tells
/// `sub` from `add` and `sra` from `srl`).
const fn key(funct3: u32, funct7: u32) -> usize {
    (funct3 | (((funct7 >> 5) & 1) << 3)) as usize
}

impl<Op: Copy, const N: usize> Table<Op, N> {
    const fn new(rows: [Row<Op>; N]) -> Self {
        let mut index = [u8::MAX; 16];
        let mut i = 0;
        while i < N {
            index[key(rows[i].funct3, rows[i].funct7)] = i as u8;
            i += 1;
        }
        Table { rows, index }
    }

    /// The operation `funct3` and `funct7` select: one load, no scan.
    #[inline]
    fn decode(&self, funct3: u32, funct7: u32) -> Option<Op> {
        let row = self
            .rows
            .get(usize::from(self.index[key(funct3, funct7)]))?;
        (row.funct7 == funct7).then_some(row.op)
    }

    fn ops(&self) -> impl Iterator<Item = Op> + '_ {
        self.rows.iter().map(|row| row.op)
    }
}

const BRANCHES: Table<BranchOp, 6> = Table::new([
    row(BranchOp::Eq, "beq", "", 0b000, 0, 0),
    row(BranchOp::Ne, "bne", "", 0b001, 0, 0),
    row(BranchOp::Lt, "blt", "", 0b100, 0, 0),
    row(BranchOp::Ge, "bge", "", 0b101, 0, 0),
    row(BranchOp::Ltu, "bltu", "", 0b110, 0, 0),
    row(BranchOp::Geu, "bgeu", "", 0b111, 0, 0),
]);

const LOADS: Table<LoadOp, 5> = Table::new([
    row(LoadOp::Lb, "lb", "", 0b000, 0, 1),
    row(LoadOp::Lh, "lh", "", 0b001, 0, 2),
    row(LoadOp::Lw, "lw", "", 0b010, 0, 4),
    row(LoadOp::Lbu, "lbu", "", 0b100, 0, 1),
    row(LoadOp::Lhu, "lhu", "", 0b101, 0, 2),
]);

const STORES: Table<StoreOp, 3> = Table::new([
    row(StoreOp::Sb, "sb", "", 0b000, 0, 1),
    row(StoreOp::Sh, "sh", "", 0b001, 0, 2),
    row(StoreOp::Sw, "sw", "", 0b010, 0, 4),
]);

/// `OP` and `OP-IMM`. `subi` is named so that `disassemble` can print the
/// `Instr` and `encode` can refuse it; no word decodes to it.
const ALU: Table<AluOp, 10> = Table::new([
    row(AluOp::Add, "add", "addi", 0b000, 0, 0),
    row(AluOp::Sub, "sub", "subi", 0b000, 0b0100000, 0),
    row(AluOp::Sll, "sll", "slli", 0b001, 0, 0),
    row(AluOp::Slt, "slt", "slti", 0b010, 0, 0),
    row(AluOp::Sltu, "sltu", "sltiu", 0b011, 0, 0),
    row(AluOp::Xor, "xor", "xori", 0b100, 0, 0),
    row(AluOp::Srl, "srl", "srli", 0b101, 0, 0),
    row(AluOp::Sra, "sra", "srai", 0b101, 0b0100000, 0),
    row(AluOp::Or, "or", "ori", 0b110, 0, 0),
    row(AluOp::And, "and", "andi", 0b111, 0, 0),
]);

const MULS: Table<MulOp, 8> = Table::new([
    row(MulOp::Mul, "mul", "", 0b000, MULDIV, 0),
    row(MulOp::Mulh, "mulh", "", 0b001, MULDIV, 0),
    row(MulOp::Mulhsu, "mulhsu", "", 0b010, MULDIV, 0),
    row(MulOp::Mulhu, "mulhu", "", 0b011, MULDIV, 0),
    row(MulOp::Div, "div", "", 0b100, MULDIV, 0),
    row(MulOp::Divu, "divu", "", 0b101, MULDIV, 0),
    row(MulOp::Rem, "rem", "", 0b110, MULDIV, 0),
    row(MulOp::Remu, "remu", "", 0b111, MULDIV, 0),
]);

/// The immediate forms set funct3's bit 2.
const CSRS: Table<CsrOp, 3> = Table::new([
    row(CsrOp::Rw, "csrrw", "csrrwi", 0b001, 0, 0),
    row(CsrOp::Rs, "csrrs", "csrrsi", 0b010, 0, 0),
    row(CsrOp::Rc, "csrrc", "csrrci", 0b011, 0, 0),
]);

impl AluOp {
    /// Whether the immediate form is a shift: a 5-bit amount under funct7.
    fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }
}

impl LoadOp {
    /// The bytes the load reads.
    pub(crate) fn bytes(self) -> u32 {
        LOADS.rows[self as usize].bytes
    }
}

impl StoreOp {
    /// The bytes the store writes.
    pub(crate) fn bytes(self) -> u32 {
        STORES.rows[self as usize].bytes
    }
}

/// The mnemonic of `instr`, as [`crate::disassemble`] prints it.
pub(crate) fn mnemonic(instr: Instr) -> &'static str {
    match instr {
        Instr::Lui { .. } => "lui",
        Instr::Auipc { .. } => "auipc",
        Instr::Jal { .. } => "jal",
        Instr::Jalr { .. } => "jalr",
        Instr::Branch { op, .. } => BRANCHES.rows[op as usize].name,
        Instr::Load { op, .. } => LOADS.rows[op as usize].name,
        Instr::Store { op, .. } => STORES.rows[op as usize].name,
        Instr::OpImm { op, .. } => ALU.rows[op as usize].imm_name,
        Instr::Op { op, .. } => ALU.rows[op as usize].name,
        Instr::MulDiv { op, .. } => MULS.rows[op as usize].name,
        Instr::Csr {
            op,
            src: CsrSrc::Reg(_),
            ..
        } => CSRS.rows[op as usize].name,
        Instr::Csr { op, .. } => CSRS.rows[op as usize].imm_name,
        Instr::Fence => "fence",
        Instr::Ecall => "ecall",
        Instr::Ebreak => "ebreak",
        Instr::Mret => "mret",
        Instr::Wfi => "wfi",
    }
}

/// The base instruction called `name`, every operand zero: how the
/// assembler resolves a mnemonic. Pseudo-instructions are the assembler's.
pub(crate) fn template(name: &str) -> Option<Instr> {
    // Built once from the rows, like `decode`'s index: a statement costs a
    // map lookup, not a scan of every mnemonic.
    static BY_NAME: OnceLock<BTreeMap<&str, Instr>> = OnceLock::new();
    let by_name = BY_NAME.get_or_init(|| {
        let (rd, rs1, rs2, imm, csr) = (Reg::ZERO, Reg::ZERO, Reg::ZERO, 0, 0);
        let singles = [
            Instr::Lui { rd, imm },
            Instr::Auipc { rd, imm },
            Instr::Jal { rd, imm },
            Instr::Jalr { rd, rs1, imm },
            Instr::Fence,
            Instr::Ecall,
            Instr::Ebreak,
            Instr::Mret,
            Instr::Wfi,
        ];
        singles
            .into_iter()
            .chain(BRANCHES.ops().map(|op| Instr::Branch { op, rs1, rs2, imm }))
            .chain(LOADS.ops().map(|op| Instr::Load { op, rd, rs1, imm }))
            .chain(STORES.ops().map(|op| Instr::Store { op, rs1, rs2, imm }))
            .chain(ALU.ops().map(|op| Instr::OpImm { op, rd, rs1, imm }))
            .chain(ALU.ops().map(|op| Instr::Op { op, rd, rs1, rs2 }))
            .chain(MULS.ops().map(|op| Instr::MulDiv { op, rd, rs1, rs2 }))
            .chain(CSRS.ops().flat_map(|op| {
                [CsrSrc::Reg(rs1), CsrSrc::Imm(0)].map(|src| Instr::Csr { op, rd, csr, src })
            }))
            .map(|base| (mnemonic(base), base))
            .collect()
    });
    by_name.get(name).copied()
}

fn bits(word: u32, hi: u32, lo: u32) -> u32 {
    (word >> lo) & ((1 << (hi - lo + 1)) - 1)
}

fn sext(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

/// Decodes a 32-bit instruction word.
///
/// # Errors
///
/// Returns [`DecodeError::Illegal`] for any unsupported encoding.
///
/// # Examples
///
/// ```
/// use rosebud_riscv::{decode, Instr, Reg};
/// // addi a0, zero, 42
/// let instr = decode(0x02a0_0513).unwrap();
/// assert!(matches!(instr, Instr::OpImm { imm: 42, .. }));
/// ```
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let opcode = bits(word, 6, 0);
    let rd = Reg(bits(word, 11, 7) as u8);
    let funct3 = bits(word, 14, 12);
    let rs1 = Reg(bits(word, 19, 15) as u8);
    let rs2 = Reg(bits(word, 24, 20) as u8);
    let funct7 = bits(word, 31, 25);

    let i_imm = sext(bits(word, 31, 20), 12);
    let s_imm = sext((bits(word, 31, 25) << 5) | bits(word, 11, 7), 12);
    let b_imm = sext(
        (bits(word, 31, 31) << 12)
            | (bits(word, 7, 7) << 11)
            | (bits(word, 30, 25) << 5)
            | (bits(word, 11, 8) << 1),
        13,
    );
    let u_imm = sext(bits(word, 31, 12), 20);
    let j_imm = sext(
        (bits(word, 31, 31) << 20)
            | (bits(word, 19, 12) << 12)
            | (bits(word, 20, 20) << 11)
            | (bits(word, 30, 21) << 1),
        21,
    );

    let illegal = DecodeError::Illegal(word);
    Ok(match opcode {
        LUI => Instr::Lui { rd, imm: u_imm },
        AUIPC => Instr::Auipc { rd, imm: u_imm },
        JAL => Instr::Jal { rd, imm: j_imm },
        JALR if funct3 == 0 => Instr::Jalr {
            rd,
            rs1,
            imm: i_imm,
        },
        BRANCH => Instr::Branch {
            op: BRANCHES.decode(funct3, 0).ok_or(illegal)?,
            rs1,
            rs2,
            imm: b_imm,
        },
        LOAD => Instr::Load {
            op: LOADS.decode(funct3, 0).ok_or(illegal)?,
            rd,
            rs1,
            imm: i_imm,
        },
        STORE => Instr::Store {
            op: STORES.decode(funct3, 0).ok_or(illegal)?,
            rs1,
            rs2,
            imm: s_imm,
        },
        OP_IMM => match ALU.decode(funct3, 0).ok_or(illegal)? {
            op if op.is_shift() => Instr::OpImm {
                op: ALU.decode(funct3, funct7).ok_or(illegal)?,
                rd,
                rs1,
                imm: rs2.0 as i32,
            },
            op => Instr::OpImm {
                op,
                rd,
                rs1,
                imm: i_imm,
            },
        },
        OP if funct7 == MULDIV => Instr::MulDiv {
            op: MULS.decode(funct3, funct7).ok_or(illegal)?,
            rd,
            rs1,
            rs2,
        },
        OP => Instr::Op {
            op: ALU.decode(funct3, funct7).ok_or(illegal)?,
            rd,
            rs1,
            rs2,
        },
        // FENCE only: `fence.i` (funct3 = 1) is not implemented, and the
        // other funct3 values are reserved.
        MISC_MEM if funct3 == 0 => Instr::Fence,
        SYSTEM if funct3 == 0 => match word {
            ECALL => Instr::Ecall,
            EBREAK => Instr::Ebreak,
            MRET => Instr::Mret,
            WFI => Instr::Wfi,
            _ => return Err(illegal),
        },
        SYSTEM => Instr::Csr {
            op: CSRS.decode(funct3 & 0b011, 0).ok_or(illegal)?,
            rd,
            csr: bits(word, 31, 20) as u16,
            src: if funct3 & 0b100 == 0 {
                CsrSrc::Reg(rs1)
            } else {
                CsrSrc::Imm(rs1.0)
            },
        },
        _ => return Err(illegal),
    })
}

/// Encodes an instruction back to its 32-bit word.
///
/// `encode` and [`decode`] are inverses for every representable instruction,
/// a property the test suite checks exhaustively with proptest.
///
/// # Errors
///
/// Returns [`EncodeError::NoSubImmediate`] for an `OpImm` with
/// [`AluOp::Sub`]: RV32 has no `subi` — negate the immediate and use
/// `addi`. Returns [`EncodeError::OutOfRange`] for an immediate its field
/// cannot hold, or an odd branch or jump offset. The assembler surfaces
/// both as an [`crate::AsmError`] on the offending source line.
pub fn encode(instr: Instr) -> Result<u32, EncodeError> {
    /// `imm` as the bits of its field, if it lies in `range` and is a
    /// multiple of `align`.
    fn fit(
        field: &'static str,
        imm: i32,
        range: Range<i32>,
        align: i32,
    ) -> Result<u32, EncodeError> {
        if range.contains(&imm) && imm % align == 0 {
            Ok(imm as u32)
        } else {
            Err(EncodeError::OutOfRange { field, value: imm })
        }
    }
    const I12: Range<i32> = -2048..2048;
    fn reg(r: Reg, at: u32) -> u32 {
        (r.0 as u32) << at
    }
    fn i_type(opcode: u32, funct3: u32, rd: Reg, rs1: Reg, imm: u32) -> u32 {
        ((imm & 0xfff) << 20) | reg(rs1, 15) | (funct3 << 12) | reg(rd, 7) | opcode
    }
    fn r_type(funct7: u32, funct3: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
        (funct7 << 25) | reg(rs2, 20) | reg(rs1, 15) | (funct3 << 12) | reg(rd, 7) | OP
    }

    Ok(match instr {
        Instr::Lui { rd, imm } => {
            (fit("upper immediate", imm, -(1 << 19)..(1 << 19), 1)? << 12) | reg(rd, 7) | LUI
        }
        Instr::Auipc { rd, imm } => {
            (fit("upper immediate", imm, -(1 << 19)..(1 << 19), 1)? << 12) | reg(rd, 7) | AUIPC
        }
        Instr::Jal { rd, imm } => {
            let imm = fit("jump offset", imm, -(1 << 20)..(1 << 20), 2)?;
            (((imm >> 20) & 1) << 31)
                | (((imm >> 1) & 0x3ff) << 21)
                | (((imm >> 11) & 1) << 20)
                | (((imm >> 12) & 0xff) << 12)
                | reg(rd, 7)
                | JAL
        }
        Instr::Jalr { rd, rs1, imm } => i_type(JALR, 0, rd, rs1, fit("immediate", imm, I12, 1)?),
        Instr::Branch { op, rs1, rs2, imm } => {
            let imm = fit("branch offset", imm, -4096..4096, 2)?;
            (((imm >> 12) & 1) << 31)
                | (((imm >> 5) & 0x3f) << 25)
                | reg(rs2, 20)
                | reg(rs1, 15)
                | (BRANCHES.rows[op as usize].funct3 << 12)
                | (((imm >> 1) & 0xf) << 8)
                | (((imm >> 11) & 1) << 7)
                | BRANCH
        }
        Instr::Load { op, rd, rs1, imm } => {
            let imm = fit("memory offset", imm, I12, 1)?;
            i_type(LOAD, LOADS.rows[op as usize].funct3, rd, rs1, imm)
        }
        Instr::Store { op, rs1, rs2, imm } => {
            let imm = fit("memory offset", imm, I12, 1)?;
            (((imm >> 5) & 0x7f) << 25)
                | reg(rs2, 20)
                | reg(rs1, 15)
                | (STORES.rows[op as usize].funct3 << 12)
                | ((imm & 0x1f) << 7)
                | STORE
        }
        Instr::OpImm { op: AluOp::Sub, .. } => return Err(EncodeError::NoSubImmediate),
        Instr::OpImm { op, rd, rs1, imm } => {
            let row = &ALU.rows[op as usize];
            let imm = if op.is_shift() {
                fit("shift amount", imm, 0..32, 1)? | (row.funct7 << 5)
            } else {
                fit("immediate", imm, I12, 1)?
            };
            i_type(OP_IMM, row.funct3, rd, rs1, imm)
        }
        Instr::Op { op, rd, rs1, rs2 } => {
            let row = &ALU.rows[op as usize];
            r_type(row.funct7, row.funct3, rd, rs1, rs2)
        }
        Instr::MulDiv { op, rd, rs1, rs2 } => {
            r_type(MULDIV, MULS.rows[op as usize].funct3, rd, rs1, rs2)
        }
        Instr::Fence => MISC_MEM,
        Instr::Ecall => ECALL,
        Instr::Ebreak => EBREAK,
        Instr::Mret => MRET,
        Instr::Wfi => WFI,
        Instr::Csr { op, rd, csr, src } => {
            let (imm_form, rs1) = match src {
                CsrSrc::Reg(r) => (0, reg(r, 0)),
                CsrSrc::Imm(v) => (0b100, fit("CSR immediate", i32::from(v), 0..32, 1)?),
            };
            let csr = fit("CSR number", i32::from(csr), 0..4096, 1)?;
            let funct3 = CSRS.rows[op as usize].funct3 | imm_form;
            (csr << 20) | (rs1 << 15) | (funct3 << 12) | reg(rd, 7) | SYSTEM
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_known_words() {
        // addi a0, zero, 42
        assert_eq!(
            decode(0x02a0_0513).unwrap(),
            Instr::OpImm {
                op: AluOp::Add,
                rd: Reg(10),
                rs1: Reg(0),
                imm: 42
            }
        );
        // lui t0, 0x12345
        assert_eq!(
            decode(0x1234_52b7).unwrap(),
            Instr::Lui {
                rd: Reg(5),
                imm: 0x12345
            }
        );
        // sw a1, 8(sp)
        assert_eq!(
            decode(0x00b1_2423).unwrap(),
            Instr::Store {
                op: StoreOp::Sw,
                rs1: Reg(2),
                rs2: Reg(11),
                imm: 8
            }
        );
        // beq a0, a1, +16
        let word = encode(Instr::Branch {
            op: BranchOp::Eq,
            rs1: Reg(10),
            rs2: Reg(11),
            imm: 16,
        })
        .unwrap();
        assert_eq!(
            decode(word).unwrap(),
            Instr::Branch {
                op: BranchOp::Eq,
                rs1: Reg(10),
                rs2: Reg(11),
                imm: 16,
            }
        );
    }

    #[test]
    fn encode_decode_round_trip_samples() {
        let samples = [
            Instr::Lui {
                rd: Reg(1),
                imm: -1,
            },
            Instr::Auipc {
                rd: Reg(31),
                imm: 0x7ffff,
            },
            Instr::Jal {
                rd: Reg(1),
                imm: -2048,
            },
            Instr::Jalr {
                rd: Reg(0),
                rs1: Reg(1),
                imm: 0,
            },
            Instr::Branch {
                op: BranchOp::Geu,
                rs1: Reg(4),
                rs2: Reg(9),
                imm: -4096,
            },
            Instr::Load {
                op: LoadOp::Lbu,
                rd: Reg(7),
                rs1: Reg(8),
                imm: 2047,
            },
            Instr::Store {
                op: StoreOp::Sh,
                rs1: Reg(3),
                rs2: Reg(2),
                imm: -2048,
            },
            Instr::OpImm {
                op: AluOp::Sra,
                rd: Reg(5),
                rs1: Reg(5),
                imm: 31,
            },
            Instr::Op {
                op: AluOp::Sub,
                rd: Reg(10),
                rs1: Reg(11),
                rs2: Reg(12),
            },
            Instr::MulDiv {
                op: MulOp::Remu,
                rd: Reg(13),
                rs1: Reg(14),
                rs2: Reg(15),
            },
            Instr::Ecall,
            Instr::Ebreak,
            Instr::Mret,
            Instr::Wfi,
            Instr::Csr {
                op: CsrOp::Rs,
                rd: Reg(6),
                csr: 0x342,
                src: CsrSrc::Imm(5),
            },
            Instr::Csr {
                op: CsrOp::Rw,
                rd: Reg(0),
                csr: 0x305,
                src: CsrSrc::Reg(Reg(7)),
            },
        ];
        for instr in samples {
            assert_eq!(decode(encode(instr).unwrap()).unwrap(), instr, "{instr:?}");
        }
    }

    #[test]
    fn sub_immediate_is_an_error_not_a_panic() {
        let err = encode(Instr::OpImm {
            op: AluOp::Sub,
            rd: Reg(10),
            rs1: Reg(10),
            imm: 1,
        })
        .unwrap_err();
        assert_eq!(err, EncodeError::NoSubImmediate);
        assert!(
            err.to_string().contains("addi"),
            "error should point at the fix"
        );
    }

    /// Every field `encode` fills is range-checked there, once: an
    /// immediate that does not fit is an error naming the field, not a
    /// panic (the assembler reports it on the offending line).
    #[test]
    fn out_of_range_immediates_are_errors_not_panics() {
        let (r, z) = (Reg(10), Reg::ZERO);
        let csr = |csr, src| Instr::Csr {
            op: CsrOp::Rw,
            rd: r,
            csr,
            src,
        };
        for (instr, field) in [
            (
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: r,
                    rs1: r,
                    imm: 2048,
                },
                "immediate",
            ),
            (
                Instr::OpImm {
                    op: AluOp::Sra,
                    rd: r,
                    rs1: r,
                    imm: 32,
                },
                "shift amount",
            ),
            (
                Instr::Lui {
                    rd: r,
                    imm: 1 << 19,
                },
                "upper immediate",
            ),
            (
                Instr::Branch {
                    op: BranchOp::Eq,
                    rs1: r,
                    rs2: z,
                    imm: 7,
                }, // in range, but odd
                "branch offset",
            ),
            (
                Instr::Jal {
                    rd: r,
                    imm: 1 << 20,
                },
                "jump offset",
            ),
            (
                Instr::Store {
                    op: StoreOp::Sw,
                    rs1: r,
                    rs2: z,
                    imm: -2049,
                },
                "memory offset",
            ),
            (csr(0x300, CsrSrc::Imm(32)), "CSR immediate"),
            (csr(4096, CsrSrc::Reg(z)), "CSR number"),
        ] {
            let e = encode(instr).unwrap_err();
            assert!(
                matches!(e, EncodeError::OutOfRange { field: f, .. } if f == field),
                "{instr:?}: {e}"
            );
            assert!(e.to_string().ends_with(" out of range"), "{e}");
        }
    }

    #[test]
    fn illegal_words_are_rejected() {
        assert!(decode(0x0000_0000).is_err());
        assert!(decode(0xffff_ffff).is_err());
        assert!(decode(0x0000_007f).is_err());
    }

    #[test]
    fn reg_parse_and_display() {
        assert_eq!(Reg::parse("a0"), Some(Reg(10)));
        assert_eq!(Reg::parse("x31"), Some(Reg(31)));
        assert_eq!(Reg::parse("fp"), Some(Reg(8)));
        assert_eq!(Reg::parse("x32"), None);
        assert_eq!(Reg::parse("bogus"), None);
        assert_eq!(Reg(10).to_string(), "a0");
    }
}
