//! One generator of RV32 programs, for every property over generated code.
//!
//! Every program comes from one instruction-level draw, [`instr`]: the
//! `Instr` arms the ISA properties cover, restricted by op [`Class`] and by
//! register pool. The shapes compose those draws:
//! - [`stream`]: straight-line ALU/M code, some ops overwritten by a store
//!   just before they run (self-modifying code through the decode cache);
//! - [`code`]: straight-line code or a counted loop, with calls into a leaf;
//! - [`poll`]: an RX poll loop that releases each descriptor and commits TX;
//! - [`dma`]: that loop around DMA program → kick → status-poll.
//!
//! A [`Contract`] picks whether a program keeps what its consumer checks or
//! breaks it on purpose. Draws shrink through the proptest tape: a smaller
//! draw is a shorter list, an earlier arm or a lower operand, so a shrunk
//! failure prints as a few lines of assembly.
//!
//! `crates/riscv`'s tests include this file as `mod gen;` and the root tests
//! through `#[path]`, so it names only `rosebud_riscv::` and `proptest::`.
#![allow(dead_code)]

use std::ops::Range;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::{arm, Arm, Union};
use rosebud_riscv::{
    csr, disassemble, encode, AluOp as A, BranchOp as B, CsrOp, CsrSrc, Instr, LoadOp as L,
    MulOp as M, Reg, StoreOp as S,
};

/// Register pools by operand, `[rd, rs1, rs2]`, as register numbers.
pub type Regs = [Range<u8>; 3];
/// Every register in every operand.
pub const ALL: Regs = [0..32, 0..32, 0..32];
/// `a0`–`a7` in every operand.
pub const ARGS: Regs = [10..18, 10..18, 10..18];

/// Base registers the shapes set up: the device window, data memory (RAM
/// for [`code`]) and the broadcast region.
const IO: Range<u8> = 5..6;
const DMEM: Range<u8> = 6..7;
const BCAST: Range<u8> = 28..29;

/// ALU ops; the first seven keep their sources' taint.
#[rustfmt::skip]
const ALU: [A; 10] = [A::Add, A::Xor, A::Or, A::Sll, A::Srl, A::Sra, A::Sub, A::Slt, A::Sltu, A::And];
#[rustfmt::skip]
const MUL: [M; 8] = [M::Mul, M::Mulh, M::Mulhsu, M::Mulhu, M::Div, M::Divu, M::Rem, M::Remu];
const BRANCH: [B; 6] = [B::Eq, B::Ne, B::Lt, B::Ge, B::Ltu, B::Geu];
const LOAD: [L; 5] = [L::Lw, L::Lb, L::Lh, L::Lbu, L::Lhu];
const STORE: [S; 3] = [S::Sw, S::Sb, S::Sh];
const CSR: [CsrOp; 3] = [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc];
#[rustfmt::skip]
const SYSTEM: [Instr; 5] = [Instr::Fence, Instr::Ecall, Instr::Ebreak, Instr::Mret, Instr::Wfi];

/// Which arms an instruction draw may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Register and immediate ALU ops, and M ops.
    Arith,
    /// Every arm, over every operand range the encoder accepts.
    Any,
    /// `Arith` without `slt`, `sltu` and `and`: each op keeps its sources'
    /// taint.
    Mix,
    /// `Arith`, and loads and stores at `0..16(t1)`.
    Mem,
    /// What a parked poll loop may repeat: `Arith`, and word loads of
    /// `RECV_READY`, `STATUS` and `DMA_STATUS` off `t0` and loads of data
    /// memory off `t1`.
    Pure,
    /// One access it may not: a load of `TIMER_L` or `BCAST_FREE` off `t0`
    /// or of the broadcast mirror off `t3`, a data-memory store, or `csrr
    /// mcycle`.
    Impure,
}

/// Whether a program keeps the contract its consumer checks (the analyzer:
/// no tainted DMA length; spin elision: a pure poll loop) or breaks it. The
/// discriminant indexes a [`Program`]'s slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contract {
    Keep = 0,
    Break = 1,
}

/// Keep or break, evenly; shrinks to `Keep`.
pub fn contract() -> Union<Contract> {
    prop_oneof![Just(Contract::Keep), Just(Contract::Break)]
}

/// How a kept [`dma`] program bounds its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sanitizer {
    /// `andi` with a mask.
    Mask,
    /// `bgeu` against a limit, back to `poll`.
    Guard,
}

/// An immediate's strategy.
trait Imm: Strategy<Value = i32> + Clone + 'static {}
impl<T: Strategy<Value = i32> + Clone + 'static> Imm for T {}

fn pick<T: Copy + 'static>(xs: &'static [T]) -> impl Strategy<Value = T> + Clone {
    (0..xs.len()).prop_map(move |i| xs[i])
}

fn reg(pool: &Range<u8>) -> impl Strategy<Value = Reg> + Clone {
    pool.clone().prop_map(Reg::new)
}

/// `x` in `-2^(bits-1) .. 2^(bits-1)`, times `scale`.
fn signed(bits: u32, scale: i32) -> impl Imm {
    (-(1i32 << (bits - 1))..1 << (bits - 1)).prop_map(move |x| x * scale)
}

fn load(ops: &'static [L], rd: &Range<u8>, base: &Range<u8>, imm: impl Imm) -> Arm<Instr> {
    let draw = (pick(ops), reg(rd), reg(base), imm);
    arm(draw.prop_map(|(op, rd, rs1, imm)| Instr::Load { op, rd, rs1, imm }))
}

fn store(ops: &'static [S], rs2: &Range<u8>, base: &Range<u8>, imm: impl Imm) -> Arm<Instr> {
    let draw = (pick(ops), reg(base), reg(rs2), imm);
    arm(draw.prop_map(|(op, rs1, rs2, imm)| Instr::Store { op, rs1, rs2, imm }))
}

/// `op rd, rs1, imm`, with `sub` drawn as `add` and shift amounts masked.
fn op_imm((op, rd, rs1, imm): (A, Reg, Reg, i32)) -> Instr {
    let op = if op == A::Sub { A::Add } else { op };
    let shift = matches!(op, A::Sll | A::Srl | A::Sra);
    let imm = if shift { imm & 31 } else { imm };
    Instr::OpImm { op, rd, rs1, imm }
}

/// One instruction of `class`, its operands drawn from `regs`.
pub fn instr(class: Class, [rd, rs1, rs2]: Regs) -> Union<Instr> {
    let alu: &'static [A] = if class == Class::Mix { &ALU[..7] } else { &ALU };
    let (d, s1, s2) = (|| reg(&rd), || reg(&rs1), || reg(&rs2));
    let words = |n: i32| (0..n).prop_map(|w| w * 4);
    let op = (pick(alu), d(), s1(), s2());
    let imm = (pick(alu), d(), s1(), signed(12, 1));
    let mul = (pick(&MUL), d(), s1(), s2());
    let mut arms = vec![
        arm(op.prop_map(|(op, rd, rs1, rs2)| Instr::Op { op, rd, rs1, rs2 })),
        arm(imm.prop_map(op_imm)),
        arm(mul.prop_map(|(op, rd, rs1, rs2)| Instr::MulDiv { op, rd, rs1, rs2 })),
    ];
    match class {
        Class::Arith | Class::Mix => {}
        Class::Any => {
            let branch = (pick(&BRANCH), s1(), s2(), signed(12, 2));
            let csr = (pick(&CSR), d(), 0u16..4096, csr_src(&rs1));
            let jalr = (d(), s1(), signed(12, 1));
            arms.extend([
                arm((d(), signed(20, 1)).prop_map(|(rd, imm)| Instr::Lui { rd, imm })),
                arm((d(), signed(20, 1)).prop_map(|(rd, imm)| Instr::Auipc { rd, imm })),
                arm((d(), signed(20, 2)).prop_map(|(rd, imm)| Instr::Jal { rd, imm })),
                arm(jalr.prop_map(|(rd, rs1, imm)| Instr::Jalr { rd, rs1, imm })),
                arm(branch.prop_map(|(op, rs1, rs2, imm)| Instr::Branch { op, rs1, rs2, imm })),
                load(&LOAD, &rd, &rs1, signed(12, 1)),
                store(&STORE, &rs2, &rs1, signed(12, 1)),
                arm(pick(&SYSTEM)),
                arm(csr.prop_map(|(op, rd, csr, src)| Instr::Csr { op, rd, csr, src })),
            ]);
        }
        Class::Mem => arms.extend([
            load(&LOAD, &rd, &DMEM, words(4)),
            store(&STORE, &rs2, &DMEM, words(4)),
        ]),
        Class::Pure => arms.extend([
            load(&[L::Lw], &rd, &IO, pick(&[0x00, 0x18, 0x54])),
            load(&LOAD, &rd, &DMEM, words(16)),
        ]),
        Class::Impure => {
            let (op, csr, src) = (CsrOp::Rs, csr::MCYCLE, CsrSrc::Reg(Reg::ZERO));
            arms = vec![
                load(&[L::Lw], &rd, &IO, pick(&[0x24, 0x3c])),
                load(&[L::Lw], &rd, &BCAST, Just(0)),
                store(&[S::Sw], &rs2, &DMEM, Just(0x40)),
                arm(d().prop_map(move |rd| Instr::Csr { op, rd, csr, src })),
            ];
        }
    }
    Union::new(arms)
}

fn csr_src(rs1: &Range<u8>) -> Union<CsrSrc> {
    prop_oneof![
        reg(rs1).prop_map(CsrSrc::Reg),
        (0u8..32).prop_map(CsrSrc::Imm)
    ]
}

/// Straight-line ALU/M code over `a0`–`a7`: seeds, then ops. An op may carry
/// a patch, which the stream stores over the op just before it runs.
#[derive(Debug, Clone)]
pub struct Stream {
    pub seeds: Vec<u32>,
    pub ops: Vec<(Instr, Option<Instr>)>,
}

/// A [`Stream`] of `len` ops, a quarter of them patched.
pub fn stream(len: Range<usize>) -> impl Strategy<Value = Stream> {
    let op = || instr(Class::Arith, ARGS);
    let patched = (op(), 0u8..4, op()).prop_map(|(op, p, new)| (op, (p == 3).then_some(new)));
    (vec(any::<u32>(), 8), vec(patched, len)).prop_map(|(seeds, ops)| Stream { seeds, ops })
}

impl Stream {
    /// The stream's assembly; seeds of zero are left to reset.
    pub fn asm(&self) -> String {
        let mut s = String::new();
        for (r, &v) in (10u8..).zip(&self.seeds).filter(|&(_, &v)| v != 0) {
            s += &format!("li {}, {}\n", Reg::new(r), v as i32);
        }
        for (i, &(op, patch)) in self.ops.iter().enumerate() {
            if let Some(new) = patch {
                let (word, text) = (encode(new).unwrap() as i32, disassemble(new));
                s += &format!("li t5, {word}\nsw t5, p{i}(zero)  # {text}\np{i}: ");
            }
            s += &format!("{}\n", disassemble(op));
        }
        s + "ebreak\n"
    }
}

/// `len` `Mem` draws over `a0`–`a3` (`t1` is RAM), an eighth of them `call
/// leaf`, then the leaf: up to `len / 2` draws and `ret`. Straight-line
/// when `iters` draws 0, else a loop counted down from it in `s0`. Yields
/// the assembly and the trip count.
/// The back edge of [`code`]'s loop.
const LATCH: &str = "addi s0, s0, -1\nbnez s0, loop\n";

pub fn code(len: Range<usize>, iters: Range<u32>) -> impl Strategy<Value = (String, u32)> {
    let op = || instr(Class::Mem, [10..14, 10..14, 10..14]).prop_map(disassemble);
    let call = |(k, op)| if k == 7 { "call leaf".to_string() } else { op };
    let body = vec((0u8..8, op()).prop_map(call), len.clone());
    let leaf = vec(op(), 0..len.end / 2);
    (any::<u16>(), iters, body, leaf).prop_map(|(a0, iters, body, leaf)| {
        let mut s = format!("li t1, 1024\nli a0, {a0}\nli a1, 3\nli a2, 7\nli a3, 1\n");
        let (top, latch) = match iters {
            0 => (String::new(), ""),
            n => (format!("li s0, {n}\nloop:\n"), LATCH),
        };
        s += &format!("{top}{}\n{latch}ebreak\n", body.join("\n"));
        if body.iter().any(|l| l == "call leaf") {
            s += &format!("leaf:\n{}\nret\n", leaf.join("\n"));
        }
        (s, iters)
    })
}

/// A generated program with one [`Contract`] slot.
#[derive(Debug, Clone)]
pub struct Program {
    text: String,
    /// The slot's lines when kept, and when broken.
    slot: [String; 2],
}

/// Where [`Program::asm`] puts the slot's lines.
const SLOT: &str = "@contract";

impl Program {
    /// The assembly, with the slot kept or broken.
    pub fn asm(&self, contract: Contract) -> String {
        self.text.replace(SLOT, &self.slot[contract as usize])
    }
}

/// An RX poll loop that forwards each descriptor to the other port: `setup`
/// runs once, `body` before each `RECV_READY` check, and `dma` between
/// taking a descriptor and releasing it.
fn forwarder(setup: &str, body: &[String], dma: &str) -> String {
    let body = body.join("\n    ");
    format!(
        "
    .equ IO, 0x02000000
    li t0, IO
    li t1, 0x00800000        # data memory
    li t2, 0x01000000        # packet memory; the port bit of a descriptor
    {setup}
poll:
    {body}
    lw a0, 0x00(t0)          # RECV_READY
    beqz a0, poll
    lw a1, 0x04(t0)          # RECV_DESC_LO
    lw a2, 0x08(t0)          # RECV_DESC_HI
    {dma}
    sw zero, 0x0c(t0)        # RECV_RELEASE
    xor a1, a1, t2           # to the other port
    sw a1, 0x10(t0)          # stage
    sw a2, 0x14(t0)          # commit
    j poll
"
    )
}

/// [`forwarder`] with `len` `Pure` draws over `s2`–`s7` (some behind a
/// forward branch) in the body. `Break` puts one `Impure` draw among them.
pub fn poll(len: Range<usize>) -> impl Strategy<Value = Program> {
    let scratch = [18..24, 18..24, 18..24];
    let body = vec((instr(Class::Pure, scratch.clone()), any::<bool>()), len);
    (body, 0usize..6, instr(Class::Impure, scratch)).prop_map(|(body, at, impure)| {
        let skip = |(i, (op, skip)): (usize, (Instr, bool))| match disassemble(op) {
            op if skip => format!("beq s2, s3, b{i}\n    {op}\nb{i}:"),
            op => op,
        };
        let mut body: Vec<String> = body.into_iter().enumerate().map(skip).collect();
        body.insert(at.min(body.len()), SLOT.into());
        let setup = "li t3, 0x04000000        # broadcast region
    li t4, 1
    sw t4, 4(t3)             # one broadcast: the mirrors change";
        let text = forwarder(setup, &body, "");
        let slot = [String::new(), disassemble(impure)];
        Program { text, slot }
    })
}

/// [`forwarder`] that DMAs a packet-derived length: it loads the attacker's
/// length into `a3`, runs `len` `Mix` draws over it (against the clean
/// `s3`), programs DMA from it, kicks and polls for completion. `Keep`
/// bounds the length first with `sanitizer`; `Break` does not.
pub fn dma(len: Range<usize>, sanitizer: Sanitizer) -> impl Strategy<Value = Program> {
    let chain = vec(instr(Class::Mix, [13..14, 13..14, 19..20]), len);
    (chain, 4u32..16, 64u32..4096).prop_map(move |(chain, mask_bits, limit)| {
        let keep = match sanitizer {
            Sanitizer::Mask => format!("andi a3, a3, {}", ((1u32 << mask_bits) - 1) & 0x7ff),
            Sanitizer::Guard => format!("li s4, {limit}\n    bgeu a3, s4, poll"),
        };
        let mut chain: Vec<String> = chain.into_iter().map(disassemble).collect();
        chain.push(SLOT.into());
        let dma = format!(
            "lw a3, 0(t2)             # packet word: the attacker's length
    {}
    sw zero, 0x44(t0)        # DMA_HOST_ADDR
    sw t2, 0x48(t0)          # DMA_LOCAL_ADDR
    sw a3, 0x4c(t0)          # DMA_LEN
    li a4, 1
    sw a4, 0x50(t0)          # DMA_CTRL: kick
wait:
    sw t2, 0x40(t0)          # pet the watchdog
    lw a4, 0x54(t0)          # DMA_STATUS completion poll
    bnez a4, wait",
            chain.join("\n    ")
        );
        let setup = "li s3, 7                 # clean mixing operand for the chain";
        let (text, slot) = (forwarder(setup, &[], &dma), [keep, String::new()]);
        Program { text, slot }
    })
}
