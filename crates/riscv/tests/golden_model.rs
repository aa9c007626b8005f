//! Differential testing of the execution engine: random straight-line
//! ALU/M programs, self-modifying ones included, run on the [`Cpu`] must
//! agree with a direct Rust evaluation of the same operations and must not
//! notice the decode cache, and a battery of classic routines
//! (memcpy, strlen, CRC-32, quicksort-ish partition) must produce the right
//! answers through the assembler + ISS pipeline.

mod gen;

use proptest::prelude::*;
use rosebud_riscv::{assemble, AluOp, Cpu, Instr, MulOp, RamBus, Reg, StepResult};

/// The reference: `op`'s destination and result over registers `x`,
/// computed from the ISA manual rather than from the ISS.
fn eval(op: Instr, x: &[u32; 32]) -> (usize, u32) {
    let r = |r: Reg| x[r.index() as usize];
    match op {
        Instr::Op { op, rd, rs1, rs2 } => (rd.index() as usize, alu(op, r(rs1), r(rs2))),
        Instr::OpImm { op, rd, rs1, imm } => (rd.index() as usize, alu(op, r(rs1), imm as u32)),
        Instr::MulDiv { op, rd, rs1, rs2 } => (rd.index() as usize, muldiv(op, r(rs1), r(rs2))),
        other => unreachable!("not ALU/M: {other:?}"),
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Xor => a ^ b,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Sll => a << (b & 31),
        AluOp::Srl => a >> (b & 31),
        AluOp::Sra => ((a as i32) >> (b & 31)) as u32,
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
    }
}

fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    let (sa, sb) = (i64::from(a as i32), i64::from(b as i32));
    let (ua, ub) = (u64::from(a), u64::from(b));
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => ((sa * sb) >> 32) as u32,
        MulOp::Mulhsu => ((sa * ub as i64) >> 32) as u32,
        MulOp::Mulhu => ((ua * ub) >> 32) as u32,
        // In 64 bits, i32::MIN / -1 needs no special case.
        MulOp::Div => sa.checked_div(sb).map_or(u32::MAX, |q| q as u32),
        MulOp::Rem => sa.checked_rem(sb).map_or(a, |r| r as u32),
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

/// Registers, `cycles()` and memory after running `source` to `ebreak`.
fn run(source: &str, decode_cache: bool) -> (Vec<u32>, u64, Vec<u8>) {
    let image = assemble(source).expect("generated program assembles");
    let mut bus = RamBus::new(64 * 1024);
    if decode_cache {
        bus = bus.with_decode_cache();
    }
    bus.load_image(0, image.words());
    let mut cpu = Cpu::new(0);
    for _ in 0..10_000 {
        if matches!(cpu.step(&mut bus), StepResult::Break) {
            break;
        }
    }
    let regs = (0..32).map(|r| cpu.reg(Reg::new(r))).collect();
    (regs, cpu.cycles(), bus.mem().to_vec())
}

proptest! {
    /// Random straight-line ALU/M streams over a0–a7, some ops overwritten
    /// just before they run: the ISS must compute exactly what direct
    /// evaluation computes, with the decode cache on as with it off.
    #[test]
    fn iss_agrees_with_direct_evaluation(stream in gen::stream(1..40)) {
        let source = stream.asm();
        let mut model = [0u32; 32];
        model[10..18].copy_from_slice(&stream.seeds);
        for &(op, patch) in &stream.ops {
            let (rd, v) = eval(patch.unwrap_or(op), &model);
            model[rd] = v;
        }
        let uncached = run(&source, false);
        prop_assert_eq!(&uncached.0[10..18], &model[10..18], "a0–a7 of\n{}", source);
        let cached = run(&source, true);
        prop_assert!(cached == uncached, "decode cache on and off diverge on\n{}", source);
    }
}

fn run_to_break(source: &str, steps: usize) -> (Cpu, RamBus) {
    let image = assemble(source).expect("program assembles");
    let mut bus = RamBus::new(64 * 1024);
    bus.load_image(0, image.words());
    let mut cpu = Cpu::new(0);
    for _ in 0..steps {
        match cpu.step(&mut bus) {
            StepResult::Break => return (cpu, bus),
            StepResult::Fault(f) => panic!("fault: {f:?} at pc {:#x}", cpu.pc()),
            _ => {}
        }
    }
    panic!("program did not finish in {steps} steps");
}

#[test]
fn memcpy_routine() {
    let (_, bus) = run_to_break(
        "
            j start
        src:
            .byte 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13
        start:
            li a0, 0x4000        # dst
            li a1, src
            li a2, 13            # len
        copy:
            beqz a2, done
            lbu t0, 0(a1)
            sb t0, 0(a0)
            addi a0, a0, 1
            addi a1, a1, 1
            addi a2, a2, -1
            j copy
        done:
            ebreak
        ",
        1000,
    );
    assert_eq!(
        &bus.mem()[0x4000..0x400d],
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]
    );
}

#[test]
fn strlen_routine() {
    let (cpu, _) = run_to_break(
        "
            j start
        msg:
            .asciz \"rosebud at 200 gbps\"
        start:
            li a0, msg
            li a1, 0
        scan:
            lbu t0, 0(a0)
            beqz t0, done
            addi a0, a0, 1
            addi a1, a1, 1
            j scan
        done:
            ebreak
        ",
        1000,
    );
    assert_eq!(cpu.reg(Reg::parse("a1").unwrap()), 19);
}

#[test]
fn crc32_routine_matches_reference() {
    // Bitwise CRC-32 (IEEE 802.3 polynomial, reflected) over 8 bytes.
    let data: [u8; 8] = [0x52, 0x6f, 0x73, 0x65, 0x62, 0x75, 0x64, 0x21]; // "Rosebud!"
    fn reference(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }
    let (cpu, _) = run_to_break(
        "
            j start
        data:
            .byte 0x52, 0x6f, 0x73, 0x65, 0x62, 0x75, 0x64, 0x21
        start:
            li a0, data
            li a1, 8
            li a2, -1            # crc = 0xffffffff
            li a4, 0xedb88320
        next_byte:
            beqz a1, finish
            lbu t0, 0(a0)
            xor a2, a2, t0
            li t1, 8
        next_bit:
            andi t2, a2, 1
            srli a2, a2, 1
            beqz t2, skip
            xor a2, a2, a4
        skip:
            addi t1, t1, -1
            bnez t1, next_bit
            addi a0, a0, 1
            addi a1, a1, -1
            j next_byte
        finish:
            not a2, a2
            ebreak
        ",
        5000,
    );
    assert_eq!(cpu.reg(Reg::parse("a2").unwrap()), reference(&data));
}

#[test]
fn recursive_factorial_uses_the_stack() {
    let (cpu, _) = run_to_break(
        "
            li sp, 0x8000
            li a0, 8
            call fact
            ebreak
        fact:
            li t0, 2
            bltu a0, t0, base
            addi sp, sp, -8
            sw ra, 0(sp)
            sw a0, 4(sp)
            addi a0, a0, -1
            call fact
            lw t1, 4(sp)
            lw ra, 0(sp)
            addi sp, sp, 8
            mul a0, a0, t1
            ret
        base:
            li a0, 1
            ret
        ",
        5000,
    );
    assert_eq!(cpu.reg(Reg::parse("a0").unwrap()), 40_320);
}
